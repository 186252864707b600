// Package fleet is the replicated model-fleet layer: it presents a set
// of interchangeable replicas per model as ONE llm.Backend (and
// llm.StreamingBackend) to the orchestrator, which keeps reasoning
// about models while this layer handles instances.
//
// Per request the pool picks a replica by power-of-two-choices over
// live inflight counts, filtered through per-replica circuit breakers
// (closed → open after consecutive failures → half-open trial after a
// cooldown) and prober-maintained health.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"llmms/internal/llm"
	"llmms/internal/telemetry"
)

// Replica names one backend instance serving a model. IDs must be
// unique within a model's replica set; they become the {replica} label
// on fleet metrics and the key in /api/fleet.
type Replica struct {
	ID      string
	Backend llm.Backend
}

// Config assembles a Pool.
type Config struct {
	// Replicas maps model name → replica set. Every model needs at
	// least one replica with a non-nil backend.
	Replicas map[string][]Replica

	// Probe, when set, is invoked per replica every probeInterval, under
	// a probeTimeout deadline. A probe error counts toward ejection
	// (probeFailures consecutive errors mark the replica unhealthy); a
	// success re-admits an unhealthy replica and closes a cooled-down
	// open breaker without burning a user request on the trial.
	Probe func(ctx context.Context, model string, r Replica) error

	// Telemetry receives fleet gauges/counters; nil disables.
	Telemetry *telemetry.Telemetry

	// Logger receives structured fleet events: breaker transitions and
	// health ejections/re-admissions. Nil discards.
	Logger *slog.Logger
}

// The pool's constants. New copies the first two into every replica's
// breaker and probeInterval into the Pool, where in-package tests
// shorten them.
const (
	// failureThreshold is the consecutive-failure count that trips a
	// replica's breaker open.
	failureThreshold = 3
	// cooldown is how long an open breaker ejects its replica before a
	// half-open trial is admitted.
	cooldown = 5 * time.Second
	// probeInterval is the prober's sweep period, probeTimeout the
	// deadline on one probe.
	probeInterval = 10 * time.Second
	probeTimeout  = 2 * time.Second
	// probeFailures consecutive probe errors mark a replica unhealthy.
	probeFailures = 2
	// selectSeed seeds the selection RNG: determinism matters, the value
	// does not ("llms").
	selectSeed = 0x6c6d6d73
)

// Fleet error sentinels, matchable with errors.Is.
var (
	// ErrUnknownModel reports a request for a model with no replica set.
	ErrUnknownModel = errors.New("fleet: model has no replica set")
	// ErrNoReplicas reports that every replica of the model is ejected
	// (breaker open within cooldown, or prober-marked unhealthy).
	ErrNoReplicas = errors.New("fleet: no selectable replica")
)

// replicaStates is the fixed vocabulary of the one-hot
// llmms_fleet_replica_state gauge.
var replicaStates = []string{"serving", "open", "half_open", "unhealthy"}

// Pool is the fleet. It satisfies llm.Backend and llm.StreamingBackend,
// so it drops in wherever a single engine or modeld client did.
type Pool struct {
	probe  func(ctx context.Context, model string, r Replica) error
	tel    *telemetry.Telemetry
	log    *slog.Logger
	models map[string]*modelPool
	names  []string // sorted model names

	rmu sync.Mutex
	rng *rand.Rand

	probeInterval time.Duration // the constant; in-package tests shorten it

	stopOnce sync.Once
	stopCh   chan struct{}
	probeWG  sync.WaitGroup
}

// modelPool is one model's replica set.
type modelPool struct {
	model    string
	replicas []*replica
}

// replica is the pool-internal state for one Replica.
type replica struct {
	mp      *modelPool
	id      string
	backend llm.Backend

	inflight atomic.Int64 // live requests + open streams, the P2C load signal

	mu         sync.Mutex
	br         breaker
	probeFails int
	unhealthy  bool
}

// New validates cfg and builds the pool. Call Start to launch the
// prober (a no-op without cfg.Probe) and Close to stop it.
func New(cfg Config) (*Pool, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("fleet: config has no models")
	}
	log := cfg.Logger
	if log == nil {
		log = telemetry.NopLogger()
	}
	p := &Pool{
		probe:         cfg.Probe,
		tel:           cfg.Telemetry,
		log:           log,
		models:        make(map[string]*modelPool, len(cfg.Replicas)),
		rng:           rand.New(rand.NewSource(selectSeed)),
		probeInterval: probeInterval,
		stopCh:        make(chan struct{}),
	}
	for model, set := range cfg.Replicas {
		if len(set) == 0 {
			return nil, fmt.Errorf("fleet: model %q has no replicas", model)
		}
		mp := &modelPool{model: model}
		seen := make(map[string]bool, len(set))
		for _, rep := range set {
			if rep.ID == "" {
				return nil, fmt.Errorf("fleet: model %q has a replica without an ID", model)
			}
			if rep.Backend == nil {
				return nil, fmt.Errorf("fleet: replica %s/%s has no backend", model, rep.ID)
			}
			if seen[rep.ID] {
				return nil, fmt.Errorf("fleet: model %q has duplicate replica ID %q", model, rep.ID)
			}
			seen[rep.ID] = true
			r := &replica{
				mp:      mp,
				id:      rep.ID,
				backend: rep.Backend,
				br: breaker{
					threshold: failureThreshold,
					cooldown:  cooldown,
					now:       time.Now,
				},
			}
			mp.replicas = append(mp.replicas, r)
		}
		p.models[model] = mp
		p.names = append(p.names, model)
	}
	sort.Strings(p.names)
	for _, name := range p.names {
		for _, r := range p.models[name].replicas {
			p.publishState(r)
		}
	}
	return p, nil
}

// Models returns the configured model names, sorted.
func (p *Pool) Models() []string {
	return append([]string(nil), p.names...)
}

// stateLocked maps the replica's combined health+breaker position onto
// the exported state vocabulary. Prober-marked unhealth dominates: a
// replica that fails its health checks is out regardless of its
// breaker. Callers hold r.mu.
func (r *replica) stateLocked() string {
	if r.unhealthy {
		return "unhealthy"
	}
	switch r.br.state {
	case breakerClosed:
		return "serving"
	case breakerOpen:
		return "open"
	default:
		return "half_open"
	}
}

// publishState refreshes the replica's one-hot state gauge.
func (p *Pool) publishState(r *replica) {
	if p.tel == nil {
		return
	}
	r.mu.Lock()
	st := r.stateLocked()
	r.mu.Unlock()
	for _, s := range replicaStates {
		v := 0.0
		if s == st {
			v = 1
		}
		p.tel.FleetReplicaState.Set(v, r.mp.model, r.id, s)
	}
}

// noteTransition feeds a breaker transition into telemetry and the
// structured log. Opens are warnings — a replica just got ejected from
// traffic — while recoveries log at info.
func (p *Pool) noteTransition(r *replica, to string) {
	if to == "" {
		return
	}
	if p.tel != nil {
		p.tel.FleetBreakerTransitions.Inc(r.mp.model, r.id, to)
	}
	if to == toOpen {
		p.log.Warn("breaker opened", "model", r.mp.model, "replica", r.id)
	} else {
		p.log.Info("breaker transition", "model", r.mp.model, "replica", r.id, "to", to)
	}
	p.publishState(r)
}

// pick selects a replica for one attempt: filter to selectable replicas
// (healthy, breaker admitting), choose by power-of-two-choices over
// inflight counts, then reserve admission (which may consume a
// half-open trial slot).
func (p *Pool) pick(mp *modelPool) (*replica, error) {
	elig := make([]*replica, 0, len(mp.replicas))
	for _, r := range mp.replicas {
		r.mu.Lock()
		ok := !r.unhealthy && r.br.selectable()
		r.mu.Unlock()
		if ok {
			elig = append(elig, r)
		}
	}
	// Admission can race with a concurrent trip or trial reservation, so
	// loop: drop a replica that refuses and try the next-best.
	for len(elig) > 0 {
		i := p.pickIndex(elig)
		r := elig[i]
		r.mu.Lock()
		ok, trans := r.br.admit()
		healthy := !r.unhealthy
		r.mu.Unlock()
		if ok && healthy {
			p.noteTransition(r, trans)
			return r, nil
		}
		elig = append(elig[:i], elig[i+1:]...)
	}
	return nil, fmt.Errorf("%w (model %s)", ErrNoReplicas, mp.model)
}

// pickIndex is power-of-two-choices: sample two distinct candidates,
// keep the one with fewer requests in flight. With one candidate there
// is no choice; ties go to the first sample.
func (p *Pool) pickIndex(elig []*replica) int {
	if len(elig) == 1 {
		return 0
	}
	p.rmu.Lock()
	i := p.rng.Intn(len(elig))
	j := p.rng.Intn(len(elig) - 1)
	p.rmu.Unlock()
	if j >= i {
		j++
	}
	if elig[j].inflight.Load() < elig[i].inflight.Load() {
		return j
	}
	return i
}

// settle feeds one request outcome into the replica's breaker. Two
// errors are neutral, though the reserved half-open trial slot is still
// released: context.Canceled, since the caller abandoned the call (a
// client disconnect), which says nothing about replica health, and
// llm.ErrStreamUnsupported, a capability the session is lifted for, on
// its open or on its first drain. DeadlineExceeded does count as a
// failure: the replica blew a deadline somebody set.
func (p *Pool) settle(r *replica, err error) {
	r.mu.Lock()
	var trans string
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, llm.ErrStreamUnsupported):
		r.br.releaseTrial()
	case err == nil:
		trans = r.br.onSuccess()
	default:
		trans = r.br.onFailure()
	}
	r.mu.Unlock()
	p.noteTransition(r, trans)
}

// GenerateChunk implements llm.Backend: route to the least-loaded
// admissible replica and call it with full accounting — inflight for the
// P2C signal, the outcome for the breaker and, when the context carries a
// trace, a "fleet.call" span recording which replica was picked and the
// breaker state it was picked in. Sessions go through OpenStream; this
// serves probes and replicas that cannot stream.
func (p *Pool) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	mp := p.models[req.Model]
	if mp == nil {
		return llm.Chunk{}, fmt.Errorf("%w: %q", ErrUnknownModel, req.Model)
	}
	r, err := p.pick(mp)
	if err != nil {
		return llm.Chunk{}, err
	}
	ctx, sp := telemetry.StartSpan(ctx, "fleet.call")
	if sp != nil {
		r.mu.Lock()
		st := r.stateLocked()
		r.mu.Unlock()
		sp.SetAttr("model", req.Model)
		sp.SetAttr("replica", r.id)
		sp.SetAttr("breaker", st)
	}
	r.inflight.Add(1)
	chunk, err := r.backend.GenerateChunk(ctx, req)
	r.inflight.Add(-1)
	sp.End(err)
	p.settle(r, err)
	return chunk, err
}

// OpenStream implements llm.StreamingBackend: a persistent session is
// routed to one replica by the same health/breaker/least-loaded rule as
// chunk calls. The replica's inflight count includes the stream for its
// whole life, so P2C steers new work away from stream-loaded replicas; a
// mid-stream failure feeds the breaker once. A picked replica that
// cannot stream reports llm.ErrStreamUnsupported, on which llm.Sessions
// lifts the session onto chunk calls, still through the fleet.
func (p *Pool) OpenStream(ctx context.Context, req llm.ChunkRequest) (llm.ChunkStream, error) {
	mp := p.models[req.Model]
	if mp == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, req.Model)
	}
	ctx, sp := telemetry.StartSpan(ctx, "fleet.stream_open")
	sp.SetAttr("model", req.Model)
	r, err := p.pick(mp)
	if err != nil {
		sp.End(err)
		return nil, err
	}
	sp.SetAttr("replica", r.id)
	sb, ok := llm.AsStreaming(r.backend)
	if !ok {
		sp.End(llm.ErrStreamUnsupported)
		p.settle(r, llm.ErrStreamUnsupported)
		return nil, llm.ErrStreamUnsupported
	}
	r.inflight.Add(1)
	st, err := sb.OpenStream(ctx, req)
	sp.End(err)
	if err != nil {
		r.inflight.Add(-1)
		p.settle(r, err)
		return nil, err
	}
	p.settle(r, nil)
	return &fleetStream{inner: st, r: r, p: p}, nil
}

// fleetStream wraps a replica's stream with fleet accounting: the
// replica stays "loaded" (inflight) until Close, and the first
// mid-stream failure counts against its breaker.
type fleetStream struct {
	inner llm.ChunkStream
	r     *replica
	p     *Pool

	failed    atomic.Bool
	closeOnce sync.Once
}

// Next implements llm.ChunkStream.
func (s *fleetStream) Next(ctx context.Context, maxTokens int) (llm.Chunk, error) {
	c, err := s.inner.Next(ctx, maxTokens)
	if err != nil &&
		!errors.Is(err, llm.ErrStreamClosed) &&
		!errors.Is(err, context.Canceled) &&
		s.failed.CompareAndSwap(false, true) {
		s.p.settle(s.r, err)
	}
	return c, err
}

// Buffered implements llm.BufferedStream when the replica's stream does.
func (s *fleetStream) Buffered() int {
	if b, ok := s.inner.(llm.BufferedStream); ok {
		return b.Buffered()
	}
	return 0
}

// Close implements llm.ChunkStream and releases the replica's inflight
// slot exactly once.
func (s *fleetStream) Close() error {
	var err error
	s.closeOnce.Do(func() {
		err = s.inner.Close()
		s.r.inflight.Add(-1)
	})
	return err
}
