package core

import (
	"context"
	"errors"
	"time"

	"llmms/internal/llm"
)

// This file implements pipelined generation (DESIGN.md "Pipelined
// generation"): every candidate has a genSession, which opens ONE
// generation stream per (model, query) and slices per-round chunks off the
// stream's client-side buffer. The backend keeps decoding between rounds,
// so round r+1's tokens are (partially) generated while round r is being
// scored, and the per-round prompt re-ingest of a chunk call is paid once
// per query instead of once per round. A backend that cannot stream (a
// stock Ollama, a chunk-only wrapper) gets sessions born in the state a
// broken stream leaves behind: every round is one retried GenerateChunk
// call. Which of the two a query runs on is decided by what the backend
// can do (llm.AsStreaming), never by configuration.
//
// Invariants, matching the fan-out contract (fanout.go):
//
//   - Determinism: a drained slice is token-for-token what the
//     per-round GenerateChunk call would have returned (same take caps,
//     same DoneReason ladder), so winner, answer, and token accounting
//     are identical on a streaming and on a chunk-only backend. Sessions
//     never emit events; transitions are reported through fanResult
//     flags and announced by the orchestrating goroutine in job order.
//   - Graceful degradation: a stream that fails to open or breaks
//     mid-query marks the session broken and the SAME call transparently
//     falls back to the retried per-round path, resuming from the last
//     good continuation state — text already drained is never lost,
//     because the buffer hands out partial slices before surfacing the
//     error. A backend that reports llm.ErrStreamUnsupported degrades
//     quietly (no fallback event: nothing was wrong, the path simply
//     does not exist).
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
	// natural finish (a later budget grant reopens from cont), and after
	// Close.
	stream llm.ChunkStream
	// broken latches a stream failure: the session stops re-trying the
	// stream path and serves every remaining call via per-round chunks.
	// A session over a backend that cannot stream starts out broken.
	broken bool
}

// next produces the candidate's chunk for one round: it drains up to
// take tokens from the stream (lazily opening it with the session-wide
// hint budget), or falls back to the retried per-round path when the
// stream is unavailable or broke. cont is the candidate's current
// continuation state — the resume point for opens and fallbacks.
func (s *genSession) next(ctx context.Context, cont []int, take, hint int) fanResult {
	var r fanResult
	if s.stream == nil && !s.broken {
		if hint < take {
			hint = take
		}
		st, err := s.backend.OpenStream(ctx, llm.ChunkRequest{
			Model: s.model, Prompt: s.prompt, MaxTokens: hint, Cont: cont,
		})
		if err != nil {
			s.broken = true
			if ctx.Err() != nil {
				r.err = ctx.Err()
				return r
			}
			if !errors.Is(err, llm.ErrStreamUnsupported) {
				r.fallback = err
			}
		} else {
			s.stream = st
			r.opened = true
		}
	}
	if s.stream != nil {
		r.prefetched = min(s.buffered(), take)
		// A drain the buffer already covers returns without waiting, so only
		// one that may wait takes the per-chunk deadline (and its timer).
		drainCtx, cancel := ctx, context.CancelFunc(func() {})
		if t := s.o.cfg.Retry.ChunkTimeout; t > 0 && r.prefetched < take {
			drainCtx, cancel = context.WithTimeout(ctx, t)
		}
		chunk, err := s.stream.Next(drainCtx, take)
		cancel()
		if err == nil {
			r.chunk = chunk
			r.attempts = 1
			r.streamed = true
			if chunk.Done {
				// Natural completion: release the backend session. A later
				// budget grant (OUA redistribution) reopens from cont.
				s.stream.Close()
				s.stream = nil
				r.closeReason = "done"
			}
			return r
		}
		// The stream broke (or a drain hit the per-chunk timeout with an
		// empty buffer). Text drained so far is safe — the buffer serves
		// partial slices before surfacing errors — so the per-round path
		// resumes exactly where the stream left off.
		s.stream.Close()
		s.stream = nil
		s.broken = true
		r.closeReason = "error"
		if ctx.Err() != nil {
			r.err = ctx.Err()
			return r
		}
		if !errors.Is(err, llm.ErrStreamUnsupported) {
			r.fallback = err
		}
	}
	chunk, attempts, err := generateWithRetry(ctx, s.o.backend, llm.ChunkRequest{
		Model: s.model, Prompt: s.prompt, MaxTokens: take, Cont: cont,
	}, s.o.cfg.Retry)
	r.chunk, r.attempts, r.err = chunk, attempts, err
	return r
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

// attachSessions gives every candidate its generation session. When the
// backend cannot stream the sessions start out broken, which is the state
// that serves every round by a per-round call.
func (o *Orchestrator) attachSessions(cands []*candidate, prompt string) {
	sb, streams := llm.AsStreaming(o.backend)
	for _, c := range cands {
		c.sess = &genSession{backend: sb, o: o, model: c.model, prompt: prompt, broken: !streams}
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

// closeAllSessions sweeps every candidate's remaining stream — the
// end-of-query cleanup (deferred by each strategy) and the early-exit
// cancel of the losers' still-running generations.
func (o *Orchestrator) closeAllSessions(strategy Strategy, round int, cands []*candidate, reason string) {
	for _, c := range cands {
		o.closeSession(strategy, round, c, reason)
	}
}

// emitStreamEvents announces one fan result's session transitions —
// open, close, fallback — on the orchestrating goroutine, in job order,
// preserving the event-determinism invariant (workers never emit).
func (o *Orchestrator) emitStreamEvents(strategy Strategy, round int, c *candidate, r fanResult) {
	if r.opened {
		o.emit(Event{Type: EventStreamOpen, Strategy: strategy, Round: round, Model: c.model})
	}
	if r.closeReason != "" {
		o.emit(Event{Type: EventStreamClose, Strategy: strategy, Round: round,
			Model: c.model, Reason: r.closeReason})
	}
	if r.fallback != nil {
		o.emit(Event{Type: EventStreamFallback, Strategy: strategy, Round: round,
			Model: c.model, Reason: r.fallback.Error()})
	}
}

// emitRoundStall announces how long the round's slowest streamed drain
// waited on generation. Rounds served entirely by the per-round path
// record nothing — the metric measures the pipelined path's overlap.
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
