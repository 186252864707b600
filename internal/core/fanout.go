package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"llmms/internal/llm"
)

// This file implements the concurrent generation pass shared by the
// multi-model strategies. The paper's candidate models "stream partial
// outputs concurrently"; over an HTTP backend a sequential round costs
// the *sum* of per-model latencies, a fan-out round costs the *max*.
//
// Two invariants keep concurrent rounds reproducible:
//
//   - Determinism: results are collected into a slice indexed by the
//     round's job order (model index), and all candidate mutation and
//     event emission happens on the orchestrating goroutine in that
//     order. Workers only write their own slot.
//   - Graceful degradation: a pull that still fails after the
//     retry budget marks its model failed-and-pruned (with an
//     EventModelFailed) instead of aborting the query; the query errors
//     only when every model has failed (ErrAllModelsFailed).

// ErrAllModelsFailed reports that no candidate model survived: every
// backend kept erroring past its retry budget, so there is no answer to
// return. Per-model detail is in the wrapping error and the
// EventModelFailed events.
var ErrAllModelsFailed = errors.New("core: all models failed")

// retryPolicy bounds how hard the orchestrator works to get one chunk
// out of one model before declaring the model failed: an open or a drain
// that fails closes the model's stream, and the next attempt reopens it
// from the model's continuation state (stream.go).
type retryPolicy struct {
	// attempts is the total tries per chunk (1 = no retries).
	attempts int
	// backoff is the sleep before the first retry; it doubles after every
	// failed attempt, up to maxBackoff. Zero retries without sleeping.
	backoff, maxBackoff time.Duration
	// chunkTimeout is the deadline on a drain that may wait for tokens. A
	// drain that exceeds it with nothing buffered counts as a failure and
	// is retried. Zero sets no deadline.
	chunkTimeout time.Duration
}

// defaultRetry is every orchestrator's per-chunk fault-tolerance budget:
// three attempts, 50 ms exponential backoff capped at 1 s, 30 s deadline
// on a drain that may wait.
var defaultRetry = retryPolicy{
	attempts:     3,
	backoff:      50 * time.Millisecond,
	maxBackoff:   time.Second,
	chunkTimeout: 30 * time.Second,
}

// fanJob is one model's slice of a fan-out round.
type fanJob struct {
	cand  *candidate
	take  int
	spent int // the query's tokens awarded before the round (genSession.drain)
}

// fanResult is the collected outcome of one fanJob, in job order.
type fanResult struct {
	chunk    llm.Chunk
	attempts int
	err      error
	// elapsed is the pull's wall clock, retries included: the time spent
	// waiting for tokens not yet buffered (the round's stall).
	elapsed time.Duration

	// Session transitions, reported back so the orchestrating goroutine
	// can emit the corresponding events in job order (stream.go).
	streamed    bool   // the chunk came off a drain
	opens       int    // streams this call opened
	broke       int    // streams this call closed on a failure
	closeReason string // non-empty when this call ended the stream naturally
	fallback    error  // the first failure this call reopened after
	prefetched  int    // tokens already buffered when the drain started
}

// roundScratch is one Run's storage for a round's jobs, their results and
// the candidates a pass scores, reused round after round so that a warm
// round allocates nothing. It is the strategy's: Runs share the Orchestrator.
type roundScratch struct {
	jobs    []fanJob
	results []fanResult
	cands   []*candidate
	wg      sync.WaitGroup
}

// unpruned lists the candidates not pruned, in the scratch's list.
func (rs *roundScratch) unpruned(cands []*candidate) []*candidate {
	rs.cands = slices.DeleteFunc(append(rs.cands[:0], cands...), func(c *candidate) bool { return c.pruned })
	return rs.cands
}

// fanOutRound is fanOut, for which the differential test substitutes the
// goroutine-per-job reference.
var fanOutRound = (*Orchestrator).fanOut

// fanOut pulls every one of rs.jobs' chunks and blocks until all have
// completed or failed their retry budget. Pulls the session's buffer already covers
// do not wait, so they and the last pull that may wait run on this
// goroutine; only the other pulls get one each. Each pull writes only its
// own result slot and the caller consumes them in job order, so candidate
// state and event order do not depend on which model answered first. The
// wait is announced first (Config.BeforeWait) even when no pull waits.
func (o *Orchestrator) fanOut(ctx context.Context, rs *roundScratch) []fanResult {
	jobs := rs.jobs
	results := slices.Grow(rs.results[:0], len(jobs))[:len(jobs)]
	rs.results = results
	if len(jobs) == 0 {
		return results
	}
	o.beforeWait()
	last := -1 // the latest pull that may wait, started once a later one shows up
	for i, j := range jobs {
		if j.cand.sess.covers(j.take) {
			results[i] = o.pull(ctx, j.cand, j.take, j.spent)
			continue
		}
		if last >= 0 {
			rs.wg.Add(1)
			go o.pullAsync(ctx, rs, last)
		}
		last = i
	}
	if last >= 0 {
		j := jobs[last]
		results[last] = o.pull(ctx, j.cand, j.take, j.spent)
	}
	rs.wg.Wait()
	return results
}

// pullAsync runs rs.jobs[i]'s pull on its own goroutine.
func (o *Orchestrator) pullAsync(ctx context.Context, rs *roundScratch, i int) {
	defer rs.wg.Done()
	j := rs.jobs[i]
	rs.results[i] = o.pull(ctx, j.cand, j.take, j.spent)
}

// pull takes one candidate's next chunk off its generation session
// (stream.go) — the single generation entry point for fan-out workers and
// the bandit's sequential pulls. A candidate's session is touched by one
// pull at a time; pull never mutates any other candidate state and never
// emits events, so it is safe on fan-out workers.
func (o *Orchestrator) pull(ctx context.Context, c *candidate, take, spent int) fanResult {
	callStart := time.Now()
	r := c.sess.next(ctx, c.cont, take, spent)
	r.elapsed = time.Since(callStart)
	return r
}

// absorb applies one pull's result to its candidate — the one place a
// chunk becomes candidate state, for every round of every multi-model
// strategy. It announces the session's transitions, then either retires a
// model whose retry budget is exhausted (the caller sees c.failed) or
// appends the chunk: text, continuation state, tokens, pull count, done
// reason, and the chunk event. It returns the tokens the chunk added, and
// an error only when the query must end: the caller's context is over, or
// the backend reported a cancel. Runs on the orchestrating goroutine.
func (o *Orchestrator) absorb(ctx context.Context, strategy Strategy, round int, c *candidate, r fanResult) (int, error) {
	o.emitStreamEvents(strategy, round, c, r)
	if r.err != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		o.failCandidate(strategy, round, c, r.attempts, r.err)
		return 0, nil
	}
	chunk := r.chunk
	c.response += chunk.Text
	c.cont = chunk.Context
	c.tokens += chunk.EvalCount
	c.pulls++
	c.reason = chunk.DoneReason
	switch chunk.DoneReason {
	case llm.DoneStop:
		c.done = true
	case llm.DoneCancel:
		return 0, cancelErr(ctx)
	}
	if chunk.EvalCount > 0 {
		o.emit(Event{Type: EventChunk, Strategy: strategy, Round: round,
			Model: c.model, Text: chunk.Text, Tokens: chunk.EvalCount,
			Elapsed: r.elapsed, Attempts: r.attempts, Prefetched: r.prefetched})
	}
	return chunk.EvalCount, nil
}

// failCandidate retires a model whose retry budget is exhausted: it is
// marked failed and pruned (graceful degradation — the query continues
// on the survivors) and the failure is announced as an EventModelFailed.
func (o *Orchestrator) failCandidate(strategy Strategy, round int, c *candidate, attempts int, err error) {
	c.failed = true
	c.pruned = true
	c.failErr = err
	o.closeSession(strategy, round, c, "failed")
	o.emit(Event{Type: EventModelFailed, Strategy: strategy, Round: round,
		Model: c.model, Attempts: attempts, Reason: err.Error()})
}

// cancelErr returns the context's error, falling back to
// context.Canceled when a backend reported a cancel the context does not
// explain — a query must never end in cancel with a nil error.
func cancelErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// allFailed reports whether no candidate is left to answer.
func allFailed(cands []*candidate) bool {
	for _, c := range cands {
		if !c.failed {
			return false
		}
	}
	return true
}

// surviving returns the candidates that have not failed — the pool a
// final answer may be drawn from even when all of them were
// score-pruned.
func surviving(cands []*candidate) []*candidate {
	var out []*candidate
	for _, c := range cands {
		if !c.failed {
			out = append(out, c)
		}
	}
	return out
}

// allFailedErr is the terminal error: a one-line message for logs, with
// ErrAllModelsFailed and every per-model cause reachable via errors.Is.
type allFailedErr struct {
	msg    string
	causes []error
}

func (e *allFailedErr) Error() string   { return e.msg }
func (e *allFailedErr) Unwrap() []error { return e.causes }

// allModelsFailedError composes the terminal error from the per-model
// failure records.
func allModelsFailedError(strategy Strategy, cands []*candidate) error {
	detail := ""
	causes := []error{ErrAllModelsFailed}
	for _, c := range cands {
		if c.failErr != nil {
			if detail != "" {
				detail += "; "
			}
			detail += fmt.Sprintf("%s: %v", c.model, c.failErr)
			causes = append(causes, c.failErr)
		}
	}
	return &allFailedErr{
		msg:    fmt.Sprintf("core: %s: %v (%s)", strategy, ErrAllModelsFailed, detail),
		causes: causes,
	}
}
