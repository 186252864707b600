package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"llmms/internal/llm"
)

// This file implements pipelined generation (DESIGN.md "Pipelined
// generation"): every candidate has a genSession, which opens ONE
// generation stream per (model, query) and takes per-round chunks off it —
// tokens the backend has already decoded, in-process or read from the
// modeld hop by the drain itself. The backend keeps decoding between rounds,
// so round r+1's tokens are (partially) generated while round r is being
// scored, and the per-round prompt re-ingest of a chunk call is paid once
// per query instead of once per round. Sessions are the only way the
// orchestrator generates: llm.Sessions hands out the backend's own, or
// lifts a backend that cannot stream (a stock Ollama, a chunk-only
// wrapper) onto one GenerateChunk per drain.
//
// Invariants, matching the fan-out contract (fanout.go):
//
//   - Determinism: a drained slice is token-for-token what a
//     GenerateChunk call of the same size would have returned (same take
//     caps, same DoneReason ladder), so winner, answer, and token
//     accounting are identical on a streaming and on a chunk-only
//     backend. Sessions never emit events; transitions are reported
//     through fanResult fields and announced by the orchestrating
//     goroutine in job order.
//   - One failure ladder: an open or a drain that fails closes the
//     stream and reopens it from the candidate's continuation state,
//     under the retry policy's attempts and doubling backoff — text already
//     drained is never lost, because a stream hands out partial slices
//     before surfacing the error. A parent cancel is never retried; a
//     cancel the parent did not cause counts as a timeout.
//   - Hygiene: every opened stream is closed exactly once — on natural
//     completion, prune, early exit, failure, or query end — so backend
//     generation capacity is released as soon as a candidate stops
//     competing.

// genSession is one candidate's persistent generation session. It is
// touched by at most one fan-out worker per round (a candidate gets at
// most one job per round) and by the orchestrating goroutine between
// rounds, never concurrently.
type genSession struct {
	backend llm.StreamingBackend
	o       *Orchestrator
	model   string
	prompt  string

	// stream is the open session, nil before the first drain, after a
	// natural finish or a failure (the next drain reopens from cont), and
	// after Close.
	stream llm.ChunkStream
}

// errChunkTimeout marks a drain that a cancel the parent context did not
// cause cut short: the per-chunk deadline.
var errChunkTimeout = errors.New("core: chunk attempt timed out")

// next produces the candidate's chunk for one round: it drains up to take
// tokens from the stream, lazily opening it, and climbs the failure
// ladder — close, back off, reopen from cont, drain again — until a drain
// succeeds or the retry policy's attempts are spent. cont is the candidate's
// current continuation state, spent the query's tokens awarded so far.
func (s *genSession) next(ctx context.Context, cont []int, take, spent int) fanResult {
	var r fanResult
	p := s.o.retry
	backoff := p.backoff
	for {
		r.attempts++
		chunk, err := s.drain(ctx, cont, take, spent, &r)
		if err == nil && chunk.DoneReason == llm.DoneCancel && ctx.Err() == nil {
			// The drain's deadline interrupted a chunk call: the backend
			// reports a cancel the caller didn't ask for.
			err = errChunkTimeout
		}
		if err == nil {
			r.chunk = chunk
			r.streamed = true
			if chunk.Done {
				// Natural completion: release the backend session.
				s.stream.Close()
				s.stream = nil
				r.closeReason = "done"
			}
			return r
		}
		if s.stream != nil {
			s.stream.Close()
			s.stream = nil
			r.broke++
		}
		if ctx.Err() != nil {
			r.err = ctx.Err()
			return r
		}
		if r.fallback == nil {
			r.fallback = err
		}
		if r.attempts >= p.attempts {
			r.err = fmt.Errorf("after %d attempts: %w", r.attempts, err)
			return r
		}
		if backoff > 0 {
			select {
			case <-ctx.Done():
				r.err = ctx.Err()
				return r
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, p.maxBackoff)
		}
	}
}

// drain is one attempt of next: open the stream if none is open, then
// take up to take tokens off it. Only a drain the buffer does not already
// cover may wait, so only it takes the per-chunk deadline (and its timer).
//
// The one session-budget rule: a stream is opened, or reopened after a
// failure, for the budget nobody has been awarded yet, λ_max − spent. No
// strategy can award one candidate more (an OUA redistribution included),
// so on a healthy backend a candidate opens one stream per query. What it
// decodes past its award is bounded by the answer and cancelled at close.
func (s *genSession) drain(ctx context.Context, cont []int, take, spent int, r *fanResult) (llm.Chunk, error) {
	if s.stream == nil {
		st, err := s.backend.OpenStream(ctx, llm.ChunkRequest{
			Model: s.model, Prompt: s.prompt, MaxTokens: max(s.o.cfg.MaxTokens-spent, take), Cont: cont,
		})
		if err != nil {
			return llm.Chunk{}, err
		}
		s.stream = st
		r.opens++
	}
	r.prefetched = min(s.buffered(), take)
	drainCtx, cancel := ctx, context.CancelFunc(func() {})
	if t := s.o.retry.chunkTimeout; t > 0 && r.prefetched < take {
		drainCtx, cancel = context.WithTimeout(ctx, t)
	}
	chunk, err := s.stream.Next(drainCtx, take)
	cancel()
	return chunk, err
}

// buffered is the open stream's undrained token count, 0 when it cannot tell.
func (s *genSession) buffered() int {
	if bs, ok := s.stream.(llm.BufferedStream); ok {
		return bs.Buffered()
	}
	return 0
}

// covers reports whether next's drain of take tokens will not wait.
func (s *genSession) covers(take int) bool { return s.stream != nil && s.buffered() >= take }

// attachSessions gives every candidate its generation session.
func (o *Orchestrator) attachSessions(cands []*candidate, prompt string) {
	sb := llm.Sessions(o.backend)
	for _, c := range cands {
		c.sess = &genSession{backend: sb, o: o, model: c.model, prompt: prompt}
	}
}

// closeStream closes the candidate's open stream, if any, reporting
// whether one was actually closed. Runs on the orchestrating goroutine.
func (c *candidate) closeStream() bool {
	if c.sess.stream == nil {
		return false
	}
	c.sess.stream.Close()
	c.sess.stream = nil
	return true
}

// closeSession closes one candidate's stream and announces it; reason
// is from the bounded set done|pruned|early_exit|failed|query_end|error.
func (o *Orchestrator) closeSession(strategy Strategy, round int, c *candidate, reason string) {
	if c.closeStream() {
		o.emit(Event{Type: EventStreamClose, Strategy: strategy, Round: round,
			Model: c.model, Reason: reason})
	}
}

// emitStreamEvents announces one fan result's session transitions — the
// streams its failures closed, the reopen notice, its opens, its natural
// close — on the orchestrating goroutine, in job order, preserving the
// event-determinism invariant (workers never emit).
func (o *Orchestrator) emitStreamEvents(strategy Strategy, round int, c *candidate, r fanResult) {
	for range r.broke {
		o.emit(Event{Type: EventStreamClose, Strategy: strategy, Round: round,
			Model: c.model, Reason: "error"})
	}
	if r.fallback != nil {
		o.emit(Event{Type: EventStreamFallback, Strategy: strategy, Round: round,
			Model: c.model, Reason: r.fallback.Error()})
	}
	for range r.opens {
		o.emit(Event{Type: EventStreamOpen, Strategy: strategy, Round: round, Model: c.model})
	}
	if r.closeReason != "" {
		o.emit(Event{Type: EventStreamClose, Strategy: strategy, Round: round,
			Model: c.model, Reason: r.closeReason})
	}
}

// emitRoundStall announces how long the round's slowest drain waited on
// generation. A round whose every drain failed records nothing.
func (o *Orchestrator) emitRoundStall(strategy Strategy, round int, results []fanResult) {
	stall, streamed := time.Duration(0), false
	for _, r := range results {
		if r.streamed {
			streamed = true
			if r.elapsed > stall {
				stall = r.elapsed
			}
		}
	}
	if streamed {
		o.emit(Event{Type: EventRoundStall, Strategy: strategy, Round: round, Elapsed: stall})
	}
}
