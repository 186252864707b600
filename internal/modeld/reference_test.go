package modeld

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"llmms/internal/llm"
	"llmms/internal/telemetry"
)

// This file keeps the design the client's sessions replaced, as the
// reference they are held to: a pump goroutine per session read the reply
// into a streamBuffer as the lines arrived, and Next drained the buffer
// from the caller's goroutine.

// streamBuffer is the reference session's token buffer: the pump Pushes
// token batches as they arrive (then Finish or Fail), while the consumer
// Drains per-round slices. Tokens are stored flat, as clientStream holds
// them. All methods are safe for one producer and one consumer.
type streamBuffer struct {
	mu   sync.Mutex
	wake chan struct{} // nudges a blocked Drain after any change

	ids  []int // the opened-from continuation state, then every pushed token's id
	base int
	text []byte
	ends []int
	head int

	final  *llm.Chunk
	err    error
	closed bool
}

func newStreamBuffer(cont []int) *streamBuffer {
	return &streamBuffer{wake: make(chan struct{}, 1), ids: append([]int(nil), cont...), base: len(cont)}
}

func (b *streamBuffer) signalLocked() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// Push appends a batch; one checkBatch refuses fails the stream before any
// of it is buffered. After Close it refuses with llm.ErrStreamClosed.
func (b *streamBuffer) Push(text []byte, ids, ends []int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pushLocked(text, ids, ends)
}

func (b *streamBuffer) pushLocked(text []byte, ids, ends []int) error {
	switch {
	case b.closed:
		return llm.ErrStreamClosed
	case b.final != nil || b.err != nil:
		return b.err
	}
	if err := checkBatch(text, ids, ends); err != nil {
		b.err = err
		b.signalLocked()
		return err
	}
	off := len(b.text)
	b.text = append(b.text, text...)
	b.ids = append(b.ids, ids...)
	if len(ends) == 0 {
		b.ends = append(b.ends, len(b.text))
	}
	for _, e := range ends {
		b.ends = append(b.ends, off+e)
	}
	b.signalLocked()
	return nil
}

// Finish pushes the last batch and records the terminal chunk in one
// step.
func (b *streamBuffer) Finish(text []byte, ids, ends []int, final llm.Chunk) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(text) > 0 || len(ids) > 0 {
		if err := b.pushLocked(text, ids, ends); err != nil {
			return err
		}
	}
	switch {
	case b.closed:
		return llm.ErrStreamClosed
	case b.final != nil || b.err != nil:
		return nil
	}
	f := final
	if slices.Equal(f.Context, b.ids) {
		f.Context = nil
	} else {
		f.Context = slices.Clone(f.Context)
	}
	b.final = &f
	b.signalLocked()
	return nil
}

// Fail records a mid-stream error; buffered tokens still drain first.
func (b *streamBuffer) Fail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.final == nil && b.err == nil {
		b.err = err
		b.signalLocked()
	}
}

func (b *streamBuffer) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.signalLocked()
}

func (b *streamBuffer) Buffered() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ends) - b.head
}

// Drain blocks until maxTokens tokens are buffered (or the stream
// finished, failed, or ctx ended) and returns the next slice; what is
// buffered goes out as a partial slice before any error.
func (b *streamBuffer) Drain(ctx context.Context, maxTokens int) (llm.Chunk, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		buffered := len(b.ends) - b.head
		switch {
		case b.closed:
			return llm.Chunk{}, llm.ErrStreamClosed
		case b.final != nil || (maxTokens > 0 && buffered >= maxTokens):
			return b.sliceLocked(maxTokens), nil
		case b.err != nil || ctx.Err() != nil:
			if buffered > 0 {
				return b.sliceLocked(maxTokens), nil
			}
			if b.err != nil {
				return llm.Chunk{}, b.err
			}
			return llm.Chunk{}, ctx.Err()
		}
		b.mu.Unlock()
		select {
		case <-b.wake:
		case <-ctx.Done():
		}
		b.mu.Lock()
	}
}

func (b *streamBuffer) sliceLocked(maxTokens int) llm.Chunk {
	taken := len(b.ends) - b.head
	if maxTokens > 0 && taken > maxTokens {
		taken = maxTokens
	}
	from := 0
	if b.head > 0 {
		from = b.ends[b.head-1]
	}
	b.head += taken
	var text string
	if taken > 0 {
		text = string(b.text[from:b.ends[b.head-1]])
	}
	drained := b.ids[: b.base+b.head : b.base+b.head]
	if b.head == len(b.ends) && b.final != nil {
		f := *b.final
		f.Text, f.EvalCount = text, taken
		if len(f.Context) == 0 {
			f.Context = drained
		}
		if f.TotalTokens == 0 {
			f.TotalTokens = len(f.Context)
		}
		return f
	}
	return llm.Chunk{Text: text, EvalCount: taken, DoneReason: llm.DoneLength, Context: drained, TotalTokens: len(drained)}
}

// pumpStream reads one reply into buf on its own goroutine: token lines
// are pushed as they arrive, the done line pushes its tokens and finishes
// the buffer, and however the body ended the buffer, the span and the
// request's count are settled once. A buffer the consumer closed refuses
// the next line, which ends the read and counts as canceled.
func (c *Client) pumpStream(lr *lineReader, buf *streamBuffer, model string, start time.Time) {
	var err error
	for err == nil && lr.next(reachDaemon) {
		switch sl := &lr.line; {
		case len(sl.ids) == 0 && len(sl.text) > 0:
			err = fmt.Errorf("modeld: daemon does not echo stream tokens: %w", llm.ErrStreamUnsupported)
		case sl.done:
			err = buf.Finish(sl.text, sl.ids, sl.ends, llm.Chunk{
				Done: true, DoneReason: sl.doneReason,
				Context: sl.context, EvalCount: sl.evalCount, TotalTokens: len(sl.context),
			})
		case len(sl.ids) > 0:
			err = buf.Push(sl.text, sl.ids, sl.ends)
		}
	}
	if err != nil && !lr.ended {
		lr.end(err)
	}
	if err == nil {
		err = lr.err
	}
	if err != nil {
		buf.Fail(err)
	}
	c.settle("generate_stream", model, start, lr.sp, err)
	lr.release()
}

// refStream is the reference session: a pumped buffer.
type refStream struct {
	buf    *streamBuffer
	cancel context.CancelFunc
}

func (s *refStream) Next(ctx context.Context, maxTokens int) (llm.Chunk, error) {
	return s.buf.Drain(ctx, maxTokens)
}

func (s *refStream) Buffered() int { return s.buf.Buffered() }

func (s *refStream) Close() error {
	s.cancel()
	s.buf.Close()
	return nil
}

// openReference is OpenStream as it was: the session's reply pumped into
// a buffer by a goroutine of its own.
func (c *Client) openReference(ctx context.Context, req llm.ChunkRequest) (*refStream, error) {
	wire := GenerateRequest{Model: req.Model, Prompt: req.Prompt, Context: req.Cont}
	wire.Options.NumPredict = req.MaxTokens
	wire.Options.StreamTokens = true
	ctx, sp := telemetry.StartSpan(ctx, "modeld.stream")
	sctx, cancel := context.WithCancel(ctx)
	start := time.Now()
	lr, err := c.send(sctx, &wire, sp)
	if err != nil {
		cancel()
		c.settle("generate_stream", req.Model, start, sp, err)
		return nil, err
	}
	return c.pump(req, lr, cancel), nil
}

// pump starts the reference session over lr.
func (c *Client) pump(req llm.ChunkRequest, lr *lineReader, cancel context.CancelFunc) *refStream {
	s := &refStream{buf: newStreamBuffer(req.Cont), cancel: cancel}
	go c.pumpStream(lr, s.buf, req.Model, time.Now())
	return s
}

// replyReader is the line reader of resp as a route other than the hop's
// hands it over: its body, its request's context and cancel.
func replyReader(resp *http.Response, body *requestBuf, sp *telemetry.Span, cancel context.CancelFunc) *lineReader {
	lr := lineReaderPool.Get().(*lineReader)
	lr.body, lr.ctx, lr.cancel, lr.req, lr.sp = resp.Body, resp.Request.Context(), cancel, body, sp
	return lr
}

// pumpReply starts the reference session over resp.
func (c *Client) pumpReply(req llm.ChunkRequest, resp *http.Response, body *requestBuf, sp *telemetry.Span, cancel context.CancelFunc) *refStream {
	return c.pump(req, replyReader(resp, body, sp, cancel), cancel)
}

// streamReply is the session OpenStream hands out over resp, with room
// for 64 ids.
func (c *Client) streamReply(req llm.ChunkRequest, resp *http.Response, body *requestBuf, sp *telemetry.Span, cancel context.CancelFunc) *clientStream {
	return newClientStream(c, req, replyReader(resp, body, sp, cancel), time.Now(), 64)
}

// scriptedReply is a reply whose body is the lines of script, then err
// (io.EOF: a clean end; nil: a body that blocks until the request's
// context ends). cancel ends that context.
func scriptedReply(script string, err error) (resp *http.Response, body *scriptedBody, cancel context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, "http://modeld/api/generate", nil)
	body = &scriptedBody{script: script, err: err, ctx: ctx, drained: make(chan struct{})}
	return &http.Response{Body: body, Request: req}, body, cancel
}

// scriptedBody reads its script a line at a time, then returns err or,
// when err is nil, blocks until ctx ends; drained is closed once a read
// has asked for more than the script.
type scriptedBody struct {
	script  string
	err     error
	ctx     context.Context
	once    sync.Once
	drained chan struct{}
}

func (b *scriptedBody) Read(p []byte) (int, error) {
	if b.script != "" {
		line := b.script
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i+1]
		}
		n := copy(p, line)
		b.script = b.script[n:]
		return n, nil
	}
	b.once.Do(func() { close(b.drained) })
	if b.err != nil {
		return 0, b.err
	}
	<-b.ctx.Done()
	return 0, context.Cause(b.ctx)
}

func (b *scriptedBody) Close() error { return nil }
