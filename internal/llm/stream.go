package llm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// This file defines the persistent generation-session contract: instead
// of issuing one budget-capped generation call per orchestration round
// (re-sending the prompt plus accumulated context and paying stream
// setup and prompt re-ingest every time), a caller opens ONE stream per
// (model, query) and each round merely drains the next λ tokens from a
// client-side buffer. The backend keeps decoding between rounds, so
// generation overlaps with the orchestrator's scoring pass and a round
// costs "drain buffered tokens" rather than "set up stream + re-ingest
// prompt + decode chunk".

// ErrStreamUnsupported reports that a backend (or the daemon behind it)
// cannot serve persistent generation streams. Sessions lifts such a
// session onto GenerateChunk; the error is a routing signal, not a
// failure of the query.
var ErrStreamUnsupported = errors.New("llm: persistent generation streams unsupported")

// ErrStreamClosed reports a Next call on a stream after Close, and a
// StreamBuffer's refusal of tokens pushed after it.
var ErrStreamClosed = errors.New("llm: generation stream closed")

// ChunkStream is one model's open generation session for one query.
// Next drains up to maxTokens already-generated (or soon-generated)
// tokens and synthesizes a Chunk with the same bookkeeping contract as
// a GenerateChunk call: Text is the drained slice, EvalCount its token
// count, Context the continuation state covering everything drained so
// far (so a caller can resume via GenerateChunk if the stream later
// breaks), and Done/DoneReason set on the terminal slice. maxTokens <= 0
// drains the whole remainder. Slicing is on token boundaries; Next never
// splits a delivered token.
//
// Next is not safe for concurrent use on one stream; Close may be called
// from any goroutine and aborts backend generation. Streams must be
// closed when abandoned (prune, early return, query end) to free backend
// capacity.
type ChunkStream interface {
	Next(ctx context.Context, maxTokens int) (Chunk, error)
	Close() error
}

// BufferedStream is optionally implemented by ChunkStream
// implementations that can report how many generated-but-undrained
// tokens sit in the client-side buffer — the pipelining win a caller can
// observe (tokens for round r+1 already decoded while round r was being
// scored).
type BufferedStream interface {
	Buffered() int
}

// StreamingBackend is implemented by backends that can hold a
// generation stream open across orchestration rounds: the in-process
// Engine and the HTTP modeld.Client. req.MaxTokens caps the whole
// session (the model's total remaining allowance), req.Cont resumes a
// previous generation exactly as in GenerateChunk.
type StreamingBackend interface {
	OpenStream(ctx context.Context, req ChunkRequest) (ChunkStream, error)
}

// StreamBuffer is the client-side token buffer of a ChunkStream whose
// tokens arrive from elsewhere (modeld.Client's over the wire; the
// engine's own stream needs none, its generation is its buffer): a
// producer goroutine Pushes token batches as the backend delivers them
// (then Finish or Fail exactly once), while the consumer Drains per-round
// slices. Tokens are stored flat — text bytes,
// one id and one end offset per token — so a round is sliced on token
// boundaries and its Text, EvalCount and Context are the same however
// the producer happened to batch its deliveries.
//
// All methods are safe for concurrent use by one producer and one
// consumer. The text and offset stores come from a pool and go back to it
// at Close: every use of them is under the mutex and refused once the
// buffer is closed, so no late Push can write into a recycled store.
type StreamBuffer struct {
	mu sync.Mutex
	// wake nudges the blocked Drain. The producer sends only once the
	// stream can satisfy the waiter (want tokens buffered) or has turned
	// terminal; a stale nudge costs one re-check.
	wake    chan struct{}
	waiting bool
	want    int // tokens the blocked Drain asked for; <= 0 waits for the end

	// ids is the continuation state the stream was opened from followed
	// by the id of every token pushed; it only ever grows, so drained
	// slices hand out capped sub-slices of it as Context without copying.
	ids  []int
	base int // len of the opened-from continuation state
	// text holds every pushed token's bytes; ends[i] is the offset in
	// text at which pushed token i ends. head counts the tokens already
	// handed to the consumer.
	text []byte
	ends []int
	head int
	// store is the pooled home of text and ends until Close.
	store *streamStore

	final  *Chunk // terminal metadata, set by Finish
	err    error  // set by Fail or a rejected Push
	closed bool
}

// streamBufferTokens bounds the tokens a new buffer makes room for. A
// session's budget is an upper bound on what it will carry, often a loose
// one (a bandit opens every model with the whole query's budget), so past
// this the buffer grows on demand instead.
const streamBufferTokens = 64

// streamStore is a buffer's text and offsets, recycled from session to
// session; the ids are not, since drained Contexts alias them.
type streamStore struct {
	text []byte
	ends []int
}

var streamStorePool = sync.Pool{New: func() any { return new(streamStore) }}

// NewStreamBuffer returns a buffer for a stream resumed from cont (nil
// starts fresh) that may carry up to maxTokens tokens (<= 0: unknown). It
// makes room for them up front, so a session within its budget is pushed
// without regrowing the three stores token by token. cont is cloned; the
// caller may reuse its slice.
func NewStreamBuffer(cont []int, maxTokens int) *StreamBuffer {
	n := streamBufferTokens
	if maxTokens > 0 && maxTokens < n {
		n = maxTokens
	}
	ids := make([]int, len(cont), len(cont)+n)
	copy(ids, cont)
	st := streamStorePool.Get().(*streamStore)
	return &StreamBuffer{
		wake:  make(chan struct{}, 1),
		ids:   ids,
		base:  len(cont),
		text:  slices.Grow(st.text[:0], n*streamBufferBytesPerToken),
		ends:  slices.Grow(st.ends[:0], n),
		store: st,
	}
}

// streamBufferBytesPerToken is what nine in ten of the models' answers
// stay under (the median is 1.9 bytes a token: the 2048-entry vocabulary
// splits most words).
const streamBufferBytesPerToken = 3

// signalLocked wakes the blocked Drain when its wait can end: the stream
// turned terminal, or holds the tokens the waiter asked for. Callers
// hold b.mu.
func (b *StreamBuffer) signalLocked() {
	if !b.waiting {
		return
	}
	terminal := b.final != nil || b.err != nil || b.closed
	if !terminal && (b.want <= 0 || len(b.ends)-b.head < b.want) {
		return
	}
	b.waiting = false
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// Push appends a batch of delivered tokens: text is their concatenated
// bytes, ids one id per token, and ends the offset in text at which each
// token ends (empty for a single token, which spans all of text). A batch
// that cannot be attributed token by token fails the stream BEFORE any
// of it is buffered, so the consumer is never handed text whose
// continuation state a fallback could not reproduce: text without ids
// fails with ErrStreamUnsupported, offsets that do not partition text
// with a plain error. The failure is also returned, so the producer can
// stop reading. text, ids and ends are copied. After Close it refuses
// with ErrStreamClosed.
func (b *StreamBuffer) Push(text []byte, ids, ends []int) error {
	if len(text) == 0 && len(ids) == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pushLocked(text, ids, ends)
}

// pushLocked is Push under b.mu.
func (b *StreamBuffer) pushLocked(text []byte, ids, ends []int) error {
	switch {
	case b.closed:
		return ErrStreamClosed
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

// checkBatch reports why a pushed batch cannot be sliced on token
// boundaries, or nil when ends partitions text into len(ids) tokens.
func checkBatch(text []byte, ids, ends []int) error {
	switch {
	case len(ids) == 0:
		return fmt.Errorf("llm: stream batch carries no token ids: %w", ErrStreamUnsupported)
	case len(ends) == 0 && len(ids) == 1:
		return nil
	case len(ends) != len(ids):
		return fmt.Errorf("llm: stream batch has %d token ids but %d token ends", len(ids), len(ends))
	case ends[len(ends)-1] != len(text):
		return fmt.Errorf("llm: stream batch token ends stop at %d of %d text bytes", ends[len(ends)-1], len(text))
	}
	prev := 0
	for _, e := range ends {
		if e < prev {
			return fmt.Errorf("llm: stream batch token ends decrease (%d after %d)", e, prev)
		}
		prev = e
	}
	return nil
}

// Finish pushes the stream's last batch (text, ids and ends as in Push;
// none for a stream whose tokens are all pushed) and records its terminal
// chunk (Done metadata), in one step: no Drain can take the batch's tokens
// without the stream's end, so a round that drains a model's last token
// also sees it finish. Buffered tokens remain drainable; the terminal
// slice is synthesized once they are exhausted. final.Context is not
// retained: when it equals the ids the buffer holds — the opened-from
// state plus every pushed token, which is what a consistent stream ends
// on — the buffer's own array serves as the terminal Context, and
// otherwise it is cloned. The caller may reuse its slices. A batch Push
// would refuse fails the stream and is returned; after Close it refuses
// with ErrStreamClosed.
func (b *StreamBuffer) Finish(text []byte, ids, ends []int, final Chunk) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(text) > 0 || len(ids) > 0 {
		if err := b.pushLocked(text, ids, ends); err != nil {
			return err
		}
	}
	switch {
	case b.closed:
		return ErrStreamClosed
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

// Fail records a mid-stream error. Already-buffered tokens remain
// drainable (they carry valid continuation state); the error surfaces
// once the buffer is empty.
func (b *StreamBuffer) Fail(err error) {
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.final != nil || b.err != nil {
		return
	}
	b.err = err
	b.signalLocked()
}

// Close marks the buffer closed: subsequent Drains return
// ErrStreamClosed without serving buffered text, and Push and Finish
// refuse; the text and offset stores go back to the pool.
func (b *StreamBuffer) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.signalLocked()
	st := b.store
	st.text, st.ends = b.text[:0], b.ends[:0]
	b.text, b.ends, b.head, b.store = nil, nil, 0, nil
	if cap(st.ends) <= 4096 { // an outsized session's store is left to the GC
		streamStorePool.Put(st)
	}
}

// Buffered reports the generated-but-undrained token count.
func (b *StreamBuffer) Buffered() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ends) - b.head
}

// Drain blocks until maxTokens tokens are buffered (or the stream
// finished, failed, or ctx expired) and returns the next slice. A
// stream that failed or was interrupted mid-slice returns what it has
// as a normal partial chunk first — the error surfaces on the next
// call — so drained text is never lost. maxTokens <= 0 waits for the
// terminal chunk and drains everything.
func (b *StreamBuffer) Drain(ctx context.Context, maxTokens int) (Chunk, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		buffered := len(b.ends) - b.head
		switch {
		case b.closed:
			return Chunk{}, ErrStreamClosed
		case b.final != nil || (maxTokens > 0 && buffered >= maxTokens):
			return b.sliceLocked(maxTokens), nil
		case b.err != nil:
			if buffered > 0 {
				return b.sliceLocked(maxTokens), nil
			}
			return Chunk{}, b.err
		case ctx.Err() != nil:
			if buffered > 0 {
				return b.sliceLocked(maxTokens), nil
			}
			return Chunk{}, ctx.Err()
		}
		b.waiting, b.want = true, maxTokens
		b.mu.Unlock()
		select {
		case <-b.wake:
		case <-ctx.Done():
		}
		b.mu.Lock()
		b.waiting = false
	}
}

// sliceLocked hands out the next maxTokens buffered tokens (all of them
// when maxTokens <= 0 or fewer are buffered) and synthesizes the round
// chunk. Callers hold b.mu.
func (b *StreamBuffer) sliceLocked(maxTokens int) Chunk {
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
	// Capped so an append by the caller reallocates, never writing into
	// the ids the producer is still extending.
	drained := b.ids[: b.base+b.head : b.base+b.head]
	if b.head == len(b.ends) && b.final != nil {
		f := *b.final
		f.Text = text
		f.EvalCount = taken
		if len(f.Context) == 0 {
			f.Context = drained
		}
		if f.TotalTokens == 0 {
			f.TotalTokens = len(f.Context)
		}
		return f
	}
	return Chunk{
		Text:        text,
		EvalCount:   taken,
		DoneReason:  DoneLength,
		Context:     drained,
		TotalTokens: len(drained),
	}
}
