package llm

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"llmms/internal/tokenizer"
)

// Generation is one generation in progress, as Engine.Generate returns
// it. A planned generation is its own buffer — plan.ids already holds the
// whole answer — so decoding is a watermark the producer (the model's
// batch scheduler) advances over it, and consuming is reading the ids
// below the watermark. The producer never waits for the consumer: it
// stores the watermark and moves on, whether the consumer is slow or
// gone, and nudges the wake channel only when the consumer has declared
// what it is blocked for.
//
// A generation has one consumer, which takes tokens with TokenBatch.Fill
// or Collect (the engine's own streams read it directly).
type Generation struct {
	plan genPlan
	tok  *tokenizer.Tokenizer

	// decoded is the watermark: plan.ids[:decoded] are decoded. over is set
	// once, after the last advance and after reason is written, and read
	// before the watermark — so a consumer that sees it also sees the final
	// watermark and the reason.
	decoded atomic.Int64
	over    atomic.Bool
	reason  DoneReason

	// want is the watermark the consumer is blocked for, 0 when it is not
	// blocked. The producer sends on wake (capacity 1) when it reaches
	// want or ends the generation, and otherwise never touches the channel.
	want atomic.Int64
	wake chan struct{}

	// taken counts the tokens the consumer has been handed, as a position
	// in plan.ids.
	taken atomic.Int64

	// stopped is set by Stop; the producer ends the generation at its next
	// step boundary, as it does once the request's context is done.
	stopped atomic.Bool

	// onTerminal, when set, runs on the producer once the generation has
	// ended — how OpenStreams learns a session stopped producing.
	onTerminal func()
}

func newGeneration(tok *tokenizer.Tokenizer, plan genPlan, onTerminal func()) *Generation {
	g := &Generation{plan: plan, tok: tok, wake: make(chan struct{}, 1), onTerminal: onTerminal}
	g.decoded.Store(int64(plan.cursor))
	g.taken.Store(int64(plan.cursor))
	return g
}

// advance publishes that the tokens below pos are decoded. Producer only.
func (g *Generation) advance(pos int) {
	g.decoded.Store(int64(pos))
	if w := g.want.Load(); w != 0 && int64(pos) >= w && g.want.CompareAndSwap(w, 0) {
		g.signal()
	}
}

// finish ends the generation at the current watermark. Producer only,
// exactly once, after the last advance.
func (g *Generation) finish(reason DoneReason) {
	g.reason = reason
	g.over.Store(true)
	if g.want.Swap(0) != 0 {
		g.signal()
	}
	if g.onTerminal != nil {
		g.onTerminal()
	}
}

// Stop asks the producer to end the generation at its next step boundary,
// with DoneCancel, as a canceled request context does, but without one. A
// generation that already ended is left as it is. Safe from any goroutine.
func (g *Generation) Stop() { g.stopped.Store(true) }

func (g *Generation) signal() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// progress returns the watermark and whether it is final.
func (g *Generation) progress() (decoded int, over bool) {
	over = g.over.Load()
	return int(g.decoded.Load()), over
}

// await blocks until the watermark reaches target, the generation ends,
// done is closed, expire fires (nil never does, either) or a stale nudge
// arrives; callers re-read progress and loop. It reports whether expire
// fired. Declaring want before the re-check is what makes a missed wake-up
// impossible: the producer stores the watermark and then reads want, the
// consumer stores want and then reads the watermark, so one of them sees
// the other.
func (g *Generation) await(done <-chan struct{}, expire <-chan time.Time, target int) (expired bool) {
	g.want.Store(int64(target))
	if decoded, over := g.progress(); over || decoded >= target {
		g.want.Store(0)
		return false
	}
	select {
	case <-g.wake:
	case <-done:
		g.want.Store(0)
	case <-expire:
		g.want.Store(0)
		return true
	}
	return false
}

// text decodes tokens [from, to).
func (g *Generation) text(from, to int) string {
	ids := g.plan.ids[from:to]
	if len(ids) == 1 {
		return g.tok.DecodeOne(tokenizer.Token(ids[0]))
	}
	n := 0
	for _, id := range ids {
		n += len(g.tok.DecodeOne(tokenizer.Token(id)))
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, id := range ids {
		sb.WriteString(g.tok.DecodeOne(tokenizer.Token(id)))
	}
	return sb.String()
}

// terminal is the final chunk of a generation that ended before token pos.
func (g *Generation) terminal(pos int, reason DoneReason) Chunk {
	return Chunk{Done: true, DoneReason: reason, Context: g.plan.ids[:pos:pos],
		EvalCount: pos - g.plan.cursor, TotalTokens: pos}
}

// TokenBatch gathers consecutive tokens of one generation into flat
// storage: Text is the concatenated bytes, IDs one id per token and Ends
// the offset in Text at which each token ends. It is how the daemon's
// line writer takes tokens off a generation — block for one, then take
// whatever else is already decoded — so a consumer slower than the
// producer pays its per-delivery cost (a flush, a wake-up) once per batch,
// and a consumer that keeps up sees batches of one. Text and Ends are
// reused across Fills; after a Fill, IDs aliases the generation's own id
// array and must not be written to.
type TokenBatch struct {
	Text []byte
	IDs  []int
	Ends []int
}

// Fill empties the batch, blocks until g has at least one token the
// consumer has not taken (or has ended), and takes everything decoded so
// far. When that reaches the generation's end it returns the terminal
// chunk (final.Done is true) and more is false. A batch that reaches the
// plan's end is the last one whether or not the producer has yet marked
// the generation over, as in engineStream.slice: nothing can follow it.
func (b *TokenBatch) Fill(g *Generation) (final Chunk, more bool) {
	b.Text, b.Ends = b.Text[:0], b.Ends[:0]
	from := int(g.taken.Load())
	decoded, over := g.progress()
	for decoded == from && !over {
		g.await(nil, nil, from+1)
		decoded, over = g.progress()
	}
	b.IDs = g.plan.ids[from:decoded:decoded]
	for _, id := range b.IDs {
		b.Text = append(b.Text, g.tok.DecodeOne(tokenizer.Token(id))...)
		b.Ends = append(b.Ends, len(b.Text))
	}
	g.taken.Store(int64(decoded))
	switch {
	case decoded == len(g.plan.ids):
		return g.terminal(decoded, g.plan.reason), false
	case over:
		return g.terminal(decoded, g.reason), false
	}
	return Chunk{}, true
}

// Collect waits for the generation to end and returns the text of every
// token not yet taken plus the terminal chunk.
func Collect(g *Generation) (string, Chunk) {
	decoded, over := g.progress()
	for !over {
		g.await(nil, nil, math.MaxInt)
		decoded, over = g.progress()
	}
	from := int(g.taken.Swap(int64(decoded)))
	return g.text(from, decoded), g.terminal(decoded, g.reason)
}

// engineStream is the in-process ChunkStream: it reads the generation's
// watermark directly, so generation runs ahead of the orchestrator's
// rounds with no goroutine and no second buffer in between.
type engineStream struct {
	gen    *Generation
	closed atomic.Bool
	// wait is the session's bound on one Next's wait (ChunkRequest.Wait),
	// timed by timer, made on the first wait and reset on each later one.
	wait  time.Duration
	timer *time.Timer
}

// OpenStream implements StreamingBackend over the simulated engine: one
// Generate call covers the whole session budget, and each Next slices the
// tokens decoded since the last one. The engine's per-token decode delay
// (LatencyScale) keeps flowing between Next calls, which is the
// generation/scoring overlap the orchestrator exploits.
func (e *Engine) OpenStream(ctx context.Context, req ChunkRequest) (ChunkStream, error) {
	e.streams.Add(1)
	gen, err := e.generate(ctx, GenRequest{
		Model: req.Model, Prompt: req.Prompt, MaxTokens: req.MaxTokens, Context: req.Cont,
	}, func() { e.streams.Add(-1) })
	if err != nil {
		e.streams.Add(-1)
		return nil, err
	}
	return &engineStream{gen: gen, wait: req.Wait}, nil
}

// Next implements ChunkStream: it waits for maxTokens tokens (the end,
// when maxTokens <= 0), and an interrupted wait — ctx ended, or the
// session's Wait ran out — hands out what there is as a partial slice
// before any error, as modeld.Client's sessions do.
func (s *engineStream) Next(ctx context.Context, maxTokens int) (Chunk, error) {
	g := s.gen
	from := int(g.taken.Load())
	target := math.MaxInt
	if maxTokens > 0 {
		target = from + maxTokens
	}
	// expire is the session's timer's channel once this call armed it; it
	// is stopped and emptied on the way out, so the next arm starts clean.
	var expire <-chan time.Time
	defer func() {
		if expire != nil && !s.timer.Stop() {
			select {
			case <-expire:
			default:
			}
		}
	}()
	expired := false
	for {
		if s.closed.Load() {
			return Chunk{}, ErrStreamClosed
		}
		decoded, over := g.progress()
		switch {
		case over || decoded >= target:
			return s.slice(from, min(decoded, target), over && decoded <= target), nil
		case ctx.Err() != nil || expired:
			if decoded > from {
				return s.slice(from, decoded, false), nil
			}
			if err := ctx.Err(); err != nil {
				return Chunk{}, err
			}
			return Chunk{}, context.DeadlineExceeded
		}
		if expire == nil && s.wait > 0 {
			if s.timer == nil {
				s.timer = time.NewTimer(s.wait)
			} else {
				s.timer.Reset(s.wait)
			}
			expire = s.timer.C
		}
		expired = g.await(ctx.Done(), expire, target)
	}
}

// slice hands out tokens [from, to) as one round's chunk; over says the
// generation has ended and the slice takes all it decoded. A slice that
// reaches the plan's end is the last one whether or not the producer has
// yet marked the generation over — nothing can follow it, and it ends for
// the plan's reason — so whether a round sees its model finish never
// depends on which side of that store the read fell.
func (s *engineStream) slice(from, to int, over bool) Chunk {
	g := s.gen
	g.taken.Store(int64(to))
	c := Chunk{
		Text:        g.text(from, to),
		EvalCount:   to - from,
		DoneReason:  DoneLength,
		Context:     g.plan.ids[:to:to],
		TotalTokens: to,
	}
	switch {
	case to == len(g.plan.ids):
		c.Done, c.DoneReason = true, g.plan.reason
	case over:
		c.Done, c.DoneReason = true, g.reason
	}
	return c
}

// Buffered implements BufferedStream.
func (s *engineStream) Buffered() int {
	decoded, _ := s.gen.progress()
	return decoded - int(s.gen.taken.Load())
}

// Close implements ChunkStream: it stops the underlying generation (the
// engine settles it at its next step and releases the hardware job) and
// fails any Next, including one blocked right now.
func (s *engineStream) Close() error {
	s.closed.Store(true)
	s.gen.Stop()
	s.gen.signal()
	return nil
}

// OpenStreams reports the engine-side generation sessions still
// producing — the observability hook leak tests assert against. A closed
// or naturally finished stream leaves the count when its producer settles
// the generation.
func (e *Engine) OpenStreams() int { return int(e.streams.Load()) }
