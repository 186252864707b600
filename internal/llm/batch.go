package llm

import (
	"sync"
	"sync/atomic"
	"time"
)

// maxBatchTokens is the per-step token budget of a model's batch
// scheduler: prefill tokens charged at admission plus one decode token per
// stepped sequence must fit.
const maxBatchTokens = 256

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
// set. Safe to call while schedulers are running; a running scheduler
// picks the new set up at its next step.
func (e *Engine) SetBatchHooks(h BatchHooks) { e.hooks.Store(&h) }

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
// when the model has no scheduler (unknown model, or nothing generated
// since the last Close).
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
	// Admission moves a sequence from pending to active under s.mu, so the
	// two counts are read together; retiring only ever lowers Active.
	s.mu.Lock()
	defer s.mu.Unlock()
	return BatchStats{
		Active: int(s.occupancy.Load()), Pending: len(s.pending),
		Steps: s.steps.Load(), Decoded: s.decoded.Load(),
	}, true
}

// batchSeq is one generation owned by a batch scheduler: its handle plus
// a decode position the scheduler advances one token per step. Advancing
// is a store to the handle's watermark, so the scheduler never waits for
// the sequence's consumer.
type batchSeq struct {
	gen *Generation
	// done is the request context's Done channel: closed when the caller
	// gave up.
	done <-chan struct{}
	// pos is the next token to decode, from the plan's cursor to its end.
	pos int
	// prefill is the token count re-ingested at admission (prompt plus
	// continued-from context), charged against the step budget once.
	prefill   int
	submitted time.Time
}

// canceled reports whether the caller gave up: its context ended, or it
// stopped the generation (Generation.Stop).
func (q *batchSeq) canceled() bool {
	if q.gen.stopped.Load() {
		return true
	}
	select {
	case <-q.done:
		return true
	default:
		return false
	}
}

func (q *batchSeq) finished() bool { return q.pos >= len(q.gen.plan.ids) }

// batchScheduler is one model's continuous-batching loop: it owns the
// model's decode clock, admits pending sequences into the active batch
// between token steps, and steps all active sequences together. One
// step costs ~1x–2x a single stream's per-token wall-clock regardless
// of occupancy (see stepDuration), which is the whole point — K
// concurrent streams cost ~2x instead of Kx.
//
// Two closed-loop clients over two daemons put same-model sequences on
// different daemons, so the occupancy a scheduler actually runs at is 1,
// and a step there must cost next to nothing: the active batch, the
// round-robin cursor, the clock and the per-step scratch belong to the
// loop goroutine alone, the counters BatchStats reads are atomics, and
// s.mu — taken once per step — guards only what submit and drain touch.
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
	draining bool

	// Read by BatchStats. occupancy is len(active) as of the last
	// admission or retirement.
	occupancy atomic.Int64
	steps     atomic.Uint64
	decoded   atomic.Uint64

	// Owned by the loop goroutine.
	active []*batchSeq
	rr     int // round-robin start index into active for the next decode set
	clock  decodeClock
	// Scratch for one step's sequence sets, reused step after step.
	dropped, admitted, spent, completed []*batchSeq
	// gpu accounting not yet handed to the cluster: the steps and tokens
	// since the last flush, and the occupancy the cluster was last told.
	unrecordedSteps, unrecordedTokens uint64
	recordedOccupancy                 int

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

// decodeClock paces simulated decoding on an absolute schedule: a step
// that follows another ends one step duration after the previous step's
// nominal end, not after whenever the previous sleep happened to return.
// The host's timer lateness (a 1.4 ms sleep returns after 2.2–2.4 ms in an
// idle process) then delays a token once instead of accumulating over
// every token of an answer, and no token is delivered before its nominal
// time.
type decodeClock struct {
	end time.Time // nominal end of the last step
}

// step schedules a step of dur and returns how long to sleep until its
// nominal end; zero or less when that has already passed. restart begins
// a new schedule at now: after an idle period, or when a sequence joins
// and its own clock starts.
func (c *decodeClock) step(dur time.Duration, restart bool) time.Duration {
	now := time.Now()
	if restart || c.end.IsZero() {
		c.end = now
	}
	c.end = c.end.Add(dur)
	return c.end.Sub(now)
}

// terminal ends a sequence's generation and records its generated tokens
// in the engine stats. Must be called without holding s.mu (e.finish takes
// e.mu).
func (s *batchScheduler) terminal(q *batchSeq, reason DoneReason) {
	s.e.finish(s.model, q.pos-q.gen.plan.cursor, s.profile)
	q.gen.finish(reason)
}

// record accounts one step toward the cluster's telemetry. The counters
// ride along until the occupancy the cluster shows would change, so a
// lone sequence costs the cluster's mutex twice, not once per token; the
// totals it ends up with are the same.
func (s *batchScheduler) record(occupancy, decoded int) {
	if decoded > 0 {
		s.unrecordedSteps++
		s.unrecordedTokens += uint64(decoded)
	}
	if occupancy != s.recordedOccupancy {
		s.e.cluster.RecordSteps(s.model, occupancy, s.unrecordedSteps, s.unrecordedTokens)
		s.recordedOccupancy, s.unrecordedSteps, s.unrecordedTokens = occupancy, 0, 0
	}
}

// retire moves the active sequences for which gone holds into dst, closing
// the batch up over them, and returns dst.
func (s *batchScheduler) retire(dst []*batchSeq, gone func(*batchSeq) bool) []*batchSeq {
	keep := s.active[:0]
	for _, q := range s.active {
		if gone(q) {
			dst = append(dst, q)
		} else {
			keep = append(keep, q)
		}
	}
	clear(s.active[len(keep):])
	s.active = keep
	return dst
}

// loop is the scheduler: one iteration sweeps cancellations, admits
// pending sequences under the step budget, decodes a round-robin set of
// active sequences, sleeps to the step's nominal end, then advances the
// decoded sequences and completes finished ones. It parks when the batch
// drains empty and exits when draining with nothing left.
func (s *batchScheduler) loop() {
	var endJob func()
	for {
		// Sweep sequences canceled since the last step.
		s.dropped = s.retire(s.dropped[:0], (*batchSeq).canceled)

		s.mu.Lock()
		for len(s.pending) == 0 && len(s.active) == 0 && len(s.dropped) == 0 {
			draining := s.draining
			s.mu.Unlock()
			if endJob != nil {
				endJob()
				endJob = nil
				s.record(0, 0)
				if h := s.e.hooks.Load(); h != nil && h.Idle != nil {
					h.Idle(s.model)
				}
			}
			if draining {
				close(s.done)
				return
			}
			<-s.wake
			s.mu.Lock()
		}

		// Admit pending sequences FIFO. The first admission of a step is
		// unconditional — a prompt whose prefill alone exceeds the budget
		// must still get in eventually — and later ones must fit the
		// budget alongside the decode set. Sequences with nothing left to
		// decode (continuation already at the end) complete right here.
		s.admitted, s.spent = s.admitted[:0], s.spent[:0]
		prefillTokens, popped := 0, 0
		for ; popped < len(s.pending); popped++ {
			q := s.pending[popped]
			if q.canceled() {
				s.dropped = append(s.dropped, q)
				continue
			}
			if len(s.admitted) > 0 && prefillTokens+q.prefill+len(s.active)+1 > s.budget {
				break
			}
			s.admitted = append(s.admitted, q)
			prefillTokens += q.prefill
			if q.finished() {
				s.spent = append(s.spent, q)
			} else {
				s.active = append(s.active, q)
			}
		}
		// Close the queue up over the popped slots and nil what that
		// vacates: re-slicing from the front would keep every popped
		// sequence reachable from the backing array (and regrow it on the
		// next submit).
		rest := copy(s.pending, s.pending[popped:])
		clear(s.pending[rest:])
		s.pending = s.pending[:rest]
		s.occupancy.Store(int64(len(s.active)))
		s.mu.Unlock()

		// This step's decode set is n sequences round-robin from first:
		// whatever budget the prefill spend left over, at least one so
		// prefill-heavy steps still make decode progress, at most one
		// token per active sequence.
		n := min(s.budget-prefillTokens, len(s.active))
		if n < 1 && len(s.active) > 0 {
			n = 1
		}
		first := 0
		if n > 0 {
			first = s.rr % len(s.active)
			s.rr = (first + n) % len(s.active)
		} else {
			s.rr = 0
		}

		hooks := s.e.hooks.Load()
		if hooks != nil && hooks.Admit != nil && len(s.admitted) > 0 {
			now := time.Now()
			for _, q := range s.admitted {
				hooks.Admit(s.model, now.Sub(q.submitted))
			}
		}
		for _, q := range s.dropped {
			s.terminal(q, DoneCancel)
		}
		if len(s.active) > 0 && endJob == nil {
			endJob = s.e.cluster.BeginJob(s.model)
		}
		// The step ends one step duration after the previous step's nominal
		// end; one that admits a sequence — every step after an idle park
		// does — starts now.
		stepDur := s.stepDuration(prefillTokens, n)
		if stepDur > 0 {
			if d := s.clock.step(stepDur, len(s.admitted) > 0); d > 0 {
				time.Sleep(d)
			}
		}

		// Advance the step's sequences and retire finished ones. Advancing
		// cannot block, and admission only happens at the top of the loop,
		// so it stays strictly between steps.
		for i := 0; i < n; i++ {
			q := s.active[(first+i)%len(s.active)]
			q.pos++
			q.gen.advance(q.pos)
		}
		s.completed = s.retire(s.completed[:0], (*batchSeq).finished)
		if n > 0 {
			s.steps.Add(1)
			s.decoded.Add(uint64(n))
		}
		s.occupancy.Store(int64(len(s.active)))

		s.record(len(s.active), n)
		if hooks != nil && hooks.Step != nil && (n > 0 || prefillTokens > 0) {
			hooks.Step(s.model, len(s.active), n, stepDur)
		}
		for _, q := range s.spent {
			s.terminal(q, q.gen.plan.reason)
		}
		for _, q := range s.completed {
			s.terminal(q, q.gen.plan.reason)
		}
		// Retired sequences must not stay reachable from the scratch.
		clear(s.dropped)
		clear(s.admitted)
		clear(s.spent)
		clear(s.completed)
	}
}
