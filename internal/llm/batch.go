package llm

import (
	"context"
	"sync"
	"time"
)

// DefaultMaxBatchTokens is the per-step token budget of a model's batch
// scheduler when Options.MaxBatchTokens is zero: prefill tokens charged
// at admission plus one decode token per stepped sequence must fit.
const DefaultMaxBatchTokens = 256

// BatchHooks observe the per-model batch schedulers. The engine calls
// them from scheduler loops without holding any engine lock; they must
// be fast and must not call back into the engine. Nil fields are
// skipped. The function-field shape keeps internal/llm free of a
// telemetry dependency — telemetry.RegisterBatchMetrics returns methods
// matching these signatures.
type BatchHooks struct {
	// Step fires after each scheduler step: occupancy is the number of
	// active sequences after the step, decoded how many tokens the step
	// produced, dur the simulated step wall-clock.
	Step func(model string, occupancy, decoded int, dur time.Duration)
	// Admit fires when a sequence joins the active batch (or completes
	// at admission); waited is the time it spent queued for a step
	// boundary.
	Admit func(model string, waited time.Duration)
	// Idle fires when a scheduler's batch drains empty and the loop
	// parks until the next submission.
	Idle func(model string)
}

// SetBatchHooks installs scheduler observers, replacing any previous
// set. Safe to call while schedulers are running.
func (e *Engine) SetBatchHooks(h BatchHooks) {
	e.hooksMu.Lock()
	e.hooks = h
	e.hooksMu.Unlock()
}

func (e *Engine) batchHooks() BatchHooks {
	e.hooksMu.RLock()
	defer e.hooksMu.RUnlock()
	return e.hooks
}

// BatchStats is a point-in-time snapshot of one model's batch scheduler.
type BatchStats struct {
	// Active is the current batch occupancy (sequences decoding).
	Active int
	// Pending is the number of sequences queued for admission.
	Pending int
	// Steps is the cumulative count of decode steps executed.
	Steps uint64
	// Decoded is the cumulative count of tokens those steps produced.
	Decoded uint64
}

// BatchStats reports the named model's scheduler snapshot. ok is false
// when the model has no scheduler (unknown model, batching disabled, or
// nothing generated since the last Unload).
func (e *Engine) BatchStats(model string) (BatchStats, bool) {
	e.mu.Lock()
	var s *batchScheduler
	if m, ok := e.models[model]; ok {
		s = m.sched
	}
	e.mu.Unlock()
	if s == nil {
		return BatchStats{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return BatchStats{
		Active: len(s.active), Pending: len(s.pending),
		Steps: s.steps, Decoded: s.decoded,
	}, true
}

// BatchingEnabled reports whether generations route through the
// continuous batch schedulers (the -batch flag on both binaries).
func (e *Engine) BatchingEnabled() bool { return !e.batchOff }

// batchSeq is one generation owned by a batch scheduler: its plan plus a
// decode position the scheduler advances one token per step. The out
// channel's buffer holds the entire remaining plan, so every send is
// non-blocking by construction.
type batchSeq struct {
	ctx  context.Context
	out  chan Chunk
	plan genPlan
	// pos is the next token to decode, from plan.cursor up to plan.end.
	pos int
	// prefill is the token count re-ingested at admission (prompt plus
	// continued-from context), charged against the step budget once.
	prefill   int
	submitted time.Time
}

// batchScheduler is one model's continuous-batching loop: it owns the
// model's decode clock, admits pending sequences into the active batch
// between token steps, and steps all active sequences together. One
// step costs ~1x–2x a single stream's per-token wall-clock regardless
// of occupancy (see stepDuration), which is the whole point — K
// concurrent streams cost ~2x instead of Kx.
//
// Lock discipline: s.mu and the engine's e.mu are never held together.
// The loop calls e.finish and gpu accounting only after releasing s.mu;
// the engine calls submit/drain only after releasing e.mu.
type batchScheduler struct {
	e       *Engine
	model   string
	profile Profile
	budget  int

	mu       sync.Mutex
	pending  []*batchSeq
	active   []*batchSeq
	rr       int // round-robin start index into active for the next decode set
	draining bool
	steps    uint64
	decoded  uint64

	wake chan struct{} // buffered(1); submit/drain nudge the loop
	done chan struct{} // closed when the loop exits
}

func newBatchScheduler(e *Engine, model string, profile Profile, budget int) *batchScheduler {
	s := &batchScheduler{
		e: e, model: model, profile: profile, budget: budget,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go s.loop()
	return s
}

// schedulerFor returns the model's scheduler, creating and attaching one
// on first use. Callers must not hold e.mu.
func (e *Engine) schedulerFor(model string, profile Profile) *batchScheduler {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.models[model]
	if !ok {
		// Models are never deregistered, so this is unreachable after
		// planGeneration succeeded; a detached scheduler still works.
		return newBatchScheduler(e, model, profile, e.maxBatch)
	}
	if m.sched == nil {
		m.sched = newBatchScheduler(e, model, profile, e.maxBatch)
	}
	return m.sched
}

// detachScheduler clears the model's scheduler slot if it still holds
// sched, so the next schedulerFor starts fresh. Used when a submit
// raced a drain.
func (e *Engine) detachScheduler(model string, sched *batchScheduler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, ok := e.models[model]; ok && m.sched == sched {
		m.sched = nil
	}
}

// drainScheduler stops admissions, lets in-flight and already-pending
// sequences finish, and blocks until the loop exits. Nil-safe and
// idempotent. Callers must not hold e.mu (the loop needs it to record
// stats while finishing).
func drainScheduler(s *batchScheduler) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	<-s.done
}

// submit queues a sequence for admission at the next step boundary.
// Returns false when the scheduler is draining (the caller must detach
// it and retry on a fresh one).
func (s *batchScheduler) submit(seq *batchSeq) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return false
	}
	s.pending = append(s.pending, seq)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return true
}

// stepDuration is the batch-efficiency cost model: one step pays the
// admitted sequences' prefill at the model's prefill rate plus a decode
// term that grows sublinearly with the decode-set size — batchEfficiency
// approaches 2 as K grows, so a full batch costs at most ~2x one
// stream's per-token wall-clock.
func (s *batchScheduler) stepDuration(prefillTokens, decoded int) time.Duration {
	scale := s.e.scale
	if scale <= 0 {
		return 0
	}
	var sec float64
	if prefillTokens > 0 && s.profile.PrefillRate() > 0 {
		sec += scale * float64(prefillTokens) / s.profile.PrefillRate()
	}
	if decoded > 0 && s.profile.TokensPerSec > 0 {
		sec += scale / s.profile.TokensPerSec * batchEfficiency(decoded)
	}
	return time.Duration(sec * float64(time.Second))
}

// batchEfficiency is the per-step latency multiplier for decoding k
// sequences together relative to one: 2 − 1/k (1.0 at k=1, →2 as k→∞).
func batchEfficiency(k int) float64 { return 2 - 1/float64(k) }

// terminal emits a sequence's final chunk, closes its channel, and
// records its generated tokens in the engine stats. The chunk fields
// match the unbatched path exactly for every done reason. Must be
// called without holding s.mu (e.finish takes e.mu).
func (s *batchScheduler) terminal(q *batchSeq, reason DoneReason) {
	s.e.finish(s.model, q.pos-q.plan.cursor, s.profile)
	q.out <- q.plan.terminal(reason, q.pos)
	close(q.out)
}

// loop is the scheduler: one iteration sweeps cancellations, admits
// pending sequences under the step budget, decodes a round-robin set of
// active sequences, sleeps the modeled step cost, then emits the
// decoded tokens and completes finished sequences. It parks when the
// batch drains empty and exits when draining with nothing left.
func (s *batchScheduler) loop() {
	var endJob func()
	park := func() {
		if endJob != nil {
			endJob()
			endJob = nil
			s.e.cluster.RecordStep(s.model, 0, 0)
			if h := s.e.batchHooks(); h.Idle != nil {
				h.Idle(s.model)
			}
		}
	}
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && len(s.active) == 0 {
			draining := s.draining
			s.mu.Unlock()
			park()
			if draining {
				close(s.done)
				return
			}
			<-s.wake
			s.mu.Lock()
		}

		// Sweep sequences canceled since the last step.
		var canceled []*batchSeq
		keep := s.active[:0]
		for _, q := range s.active {
			if q.ctx.Err() != nil {
				canceled = append(canceled, q)
			} else {
				keep = append(keep, q)
			}
		}
		clearTail(s.active, len(keep))
		s.active = keep

		// Admit pending sequences FIFO. The first admission of a step is
		// unconditional — a prompt whose prefill alone exceeds the budget
		// must still get in eventually — and later ones must fit the
		// budget alongside the decode set. Sequences with nothing left to
		// decode (continuation already at the end) complete right here.
		var admitted, finished []*batchSeq
		prefillTokens := 0
		for len(s.pending) > 0 {
			q := s.pending[0]
			if q.ctx.Err() != nil {
				s.pending = s.pending[1:]
				canceled = append(canceled, q)
				continue
			}
			if len(admitted) > 0 && prefillTokens+q.prefill+len(s.active)+1 > s.budget {
				break
			}
			s.pending = s.pending[1:]
			admitted = append(admitted, q)
			prefillTokens += q.prefill
			if q.pos >= q.plan.end {
				finished = append(finished, q)
				continue
			}
			s.active = append(s.active, q)
		}

		// Pick this step's decode set round-robin: whatever budget the
		// prefill spend left over, at least one so prefill-heavy steps
		// still make decode progress, at most one token per active
		// sequence.
		n := s.budget - prefillTokens
		if n > len(s.active) {
			n = len(s.active)
		}
		if n < 1 && len(s.active) > 0 {
			n = 1
		}
		var stepped []*batchSeq
		if n > 0 {
			s.rr %= len(s.active)
			for i := 0; i < n; i++ {
				stepped = append(stepped, s.active[(s.rr+i)%len(s.active)])
			}
			s.rr = (s.rr + n) % len(s.active)
		} else {
			s.rr = 0
		}
		busy := len(s.active) > 0
		s.mu.Unlock()

		if h := s.e.batchHooks(); h.Admit != nil {
			now := time.Now()
			for _, q := range admitted {
				h.Admit(s.model, now.Sub(q.submitted))
			}
		}
		for _, q := range canceled {
			s.terminal(q, DoneCancel)
		}
		if busy && endJob == nil {
			endJob = s.e.cluster.BeginJob(s.model)
		}
		stepDur := s.stepDuration(prefillTokens, len(stepped))
		if stepDur > 0 {
			time.Sleep(stepDur)
		}

		// Emit the step's tokens and retire finished sequences. Sends
		// cannot block (full-capacity buffers), so holding s.mu here is
		// safe and keeps admission strictly between steps.
		var completed []*batchSeq
		s.mu.Lock()
		for _, q := range stepped {
			q.out <- q.plan.token(s.e.tok, q.pos)
			q.pos++
		}
		keep = s.active[:0]
		for _, q := range s.active {
			if q.pos >= q.plan.end {
				completed = append(completed, q)
			} else {
				keep = append(keep, q)
			}
		}
		clearTail(s.active, len(keep))
		s.active = keep
		if len(stepped) > 0 {
			s.steps++
			s.decoded += uint64(len(stepped))
		}
		occupancy := len(s.active)
		s.mu.Unlock()

		s.e.cluster.RecordStep(s.model, occupancy, len(stepped))
		if h := s.e.batchHooks(); h.Step != nil && (len(stepped) > 0 || prefillTokens > 0) {
			h.Step(s.model, occupancy, len(stepped), stepDur)
		}
		for _, q := range finished {
			s.terminal(q, q.plan.reason)
		}
		for _, q := range completed {
			s.terminal(q, q.plan.reason)
		}
	}
}

// clearTail nils the retained slice's unused tail so retired sequences
// (and their buffered channels) can be collected promptly.
func clearTail(s []*batchSeq, from int) {
	for i := from; i < len(s); i++ {
		s[i] = nil
	}
}
