package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llmms/internal/llm"
	"llmms/internal/telemetry"
)

var errDown = errors.New("replica down")

// funcBackend scripts a replica with a plain function and counts calls.
type funcBackend struct {
	calls atomic.Int64
	fn    func(ctx context.Context) (llm.Chunk, error)
}

func (f *funcBackend) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	f.calls.Add(1)
	if f.fn == nil {
		return llm.Chunk{Text: "ok", EvalCount: 1, Done: true}, nil
	}
	return f.fn(ctx)
}

func okBackend() *funcBackend { return &funcBackend{} }

func failingBackend(on *atomic.Bool) *funcBackend {
	return &funcBackend{fn: func(ctx context.Context) (llm.Chunk, error) {
		if on.Load() {
			return llm.Chunk{}, errDown
		}
		return llm.Chunk{Text: "ok", EvalCount: 1, Done: true}, nil
	}}
}

// fakeClock drives every breaker in a pool deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func installClock(p *Pool) *fakeClock {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	for _, mp := range p.models {
		for _, r := range mp.replicas {
			r.br.now = clk.now
		}
	}
	return clk
}

// setBreakers gives every replica's breaker the trip threshold and
// cooldown a test needs in place of the pool's constants.
func setBreakers(p *Pool, threshold int, cooldown time.Duration) {
	for _, mp := range p.models {
		for _, r := range mp.replicas {
			r.br.threshold, r.br.cooldown = threshold, cooldown
		}
	}
}

func mustPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func replicaState(t *testing.T, p *Pool, model, id string) ReplicaStatus {
	t.Helper()
	for _, ms := range p.Status() {
		if ms.Model != model {
			continue
		}
		for _, rs := range ms.Replicas {
			if rs.ID == id {
				return rs
			}
		}
	}
	t.Fatalf("no status for %s/%s", model, id)
	return ReplicaStatus{}
}

func testReq(model string) llm.ChunkRequest {
	return llm.ChunkRequest{Model: model, Prompt: "Question: hi?\nAnswer:", MaxTokens: 4}
}

func TestNewValidatesConfig(t *testing.T) {
	cases := []Config{
		{},
		{Replicas: map[string][]Replica{"m": {}}},
		{Replicas: map[string][]Replica{"m": {{ID: "", Backend: okBackend()}}}},
		{Replicas: map[string][]Replica{"m": {{ID: "r0"}}}},
		{Replicas: map[string][]Replica{"m": {
			{ID: "r0", Backend: okBackend()}, {ID: "r0", Backend: okBackend()},
		}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestUnknownModel(t *testing.T) {
	p := mustPool(t, Config{Replicas: map[string][]Replica{"m": {{ID: "r0", Backend: okBackend()}}}})
	if _, err := p.GenerateChunk(context.Background(), testReq("nope")); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("err = %v, want ErrUnknownModel", err)
	}
	if _, err := p.OpenStream(context.Background(), testReq("nope")); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("stream err = %v, want ErrUnknownModel", err)
	}
	if err := p.Ready("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("ready err = %v, want ErrUnknownModel", err)
	}
}

// TestBreakerStateMachine drives one breaker through every transition
// with a fake clock: trip on the threshold-th consecutive failure, eject
// during cooldown, half-open single trial after cooldown, re-open on a
// failed trial, close on a successful one.
func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := breaker{threshold: 3, cooldown: time.Second, now: clk.now}

	if tr := b.onFailure(); tr != "" {
		t.Fatalf("failure 1 transitioned: %q", tr)
	}
	if tr := b.onFailure(); tr != "" {
		t.Fatalf("failure 2 transitioned: %q", tr)
	}
	if tr := b.onFailure(); tr != toOpen {
		t.Fatalf("failure 3 = %q, want open", tr)
	}
	if b.selectable() {
		t.Fatal("open breaker selectable inside cooldown")
	}
	if ok, _ := b.admit(); ok {
		t.Fatal("open breaker admitted inside cooldown")
	}

	clk.advance(time.Second)
	if !b.selectable() {
		t.Fatal("cooled-down breaker not selectable")
	}
	ok, tr := b.admit()
	if !ok || tr != toHalfOpen {
		t.Fatalf("admit after cooldown = (%v, %q), want (true, half_open)", ok, tr)
	}
	// The single trial slot is taken: nobody else gets in.
	if b.selectable() {
		t.Fatal("half-open with trial in flight still selectable")
	}
	if ok, _ := b.admit(); ok {
		t.Fatal("second admission during half-open trial")
	}
	// Failed trial → straight back to open, cooldown restarted.
	if tr := b.onFailure(); tr != toOpen {
		t.Fatalf("failed trial = %q, want open", tr)
	}
	if b.selectable() {
		t.Fatal("re-opened breaker selectable without a new cooldown")
	}

	clk.advance(time.Second)
	if ok, tr := b.admit(); !ok || tr != toHalfOpen {
		t.Fatalf("second trial admit = (%v, %q)", ok, tr)
	}
	if tr := b.onSuccess(); tr != toClosed {
		t.Fatalf("successful trial = %q, want closed", tr)
	}
	if !b.selectable() || b.consecFails != 0 {
		t.Fatalf("closed breaker not reset: selectable=%v fails=%d", b.selectable(), b.consecFails)
	}
}

// TestBreakerEjectsDyingReplica is the pool-level trip: once r0 fails
// its breaker's threshold times, all traffic lands on r1 and r0 sees no more
// calls until its cooldown expires — then a single half-open trial
// re-admits it because the backend recovered.
func TestBreakerEjectsDyingReplica(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	bad, good := failingBackend(&down), okBackend()
	tel := telemetry.New(telemetry.Options{})
	p := mustPool(t, Config{
		Replicas: map[string][]Replica{"m": {
			{ID: "r0", Backend: bad}, {ID: "r1", Backend: good},
		}},
		Telemetry: tel,
	})
	setBreakers(p, 2, time.Second)
	clk := installClock(p)

	ctx := context.Background()
	// Run requests until r0's breaker trips; every failed attempt is
	// retried here by the caller, so no request is lost.
	for replicaState(t, p, "m", "r0").State != "open" {
		if _, err := p.GenerateChunk(ctx, testReq("m")); err != nil && !errors.Is(err, errDown) {
			t.Fatal(err)
		}
	}
	if got := tel.FleetBreakerTransitions.Value("m", "r0", "open"); got != 1 {
		t.Fatalf("open transitions = %v, want 1", got)
	}
	if got := tel.FleetReplicaState.Value("m", "r0", "open"); got != 1 {
		t.Fatalf("state gauge open = %v, want 1 (one-hot)", got)
	}

	// With the breaker open, the dying replica adds zero load: every
	// request is served by r1, r0 is not called at all.
	before := bad.calls.Load()
	for i := 0; i < 10; i++ {
		if _, err := p.GenerateChunk(ctx, testReq("m")); err != nil {
			t.Fatalf("request %d through the degraded fleet: %v", i, err)
		}
	}
	if got := bad.calls.Load(); got != before {
		t.Fatalf("ejected replica was called %d more times", got-before)
	}

	// Recovery: backend comes back, cooldown elapses, one trial closes.
	down.Store(false)
	clk.advance(time.Second)
	for replicaState(t, p, "m", "r0").State != "serving" || bad.calls.Load() == before {
		if _, err := p.GenerateChunk(ctx, testReq("m")); err != nil {
			t.Fatal(err)
		}
	}
	if got := tel.FleetBreakerTransitions.Value("m", "r0", "closed"); got < 1 {
		t.Fatalf("closed transitions = %v, want ≥ 1", got)
	}
	if got := tel.FleetReplicaState.Value("m", "r0", "serving"); got != 1 {
		t.Fatalf("state gauge serving = %v, want 1", got)
	}
}

// TestAllReplicasEjected: when every breaker is open the model fails
// fast with ErrNoReplicas instead of hammering dead backends.
func TestAllReplicasEjected(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	p := mustPool(t, Config{
		Replicas: map[string][]Replica{"m": {
			{ID: "r0", Backend: failingBackend(&down)},
			{ID: "r1", Backend: failingBackend(&down)},
		}},
	})
	setBreakers(p, 1, time.Hour)
	installClock(p)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := p.GenerateChunk(ctx, testReq("m")); !errors.Is(err, errDown) {
			t.Fatalf("priming call %d: %v", i, err)
		}
	}
	if _, err := p.GenerateChunk(ctx, testReq("m")); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("err = %v, want ErrNoReplicas", err)
	}
	if err := p.Ready("m"); err == nil {
		t.Fatal("fully ejected model reported ready")
	}
}

// TestP2CSteersToLeastLoaded: with two eligible replicas, power-of-two
// choices always compares both, so the idle one wins deterministically.
func TestP2CSteersToLeastLoaded(t *testing.T) {
	b0, b1 := okBackend(), okBackend()
	p := mustPool(t, Config{Replicas: map[string][]Replica{"m": {
		{ID: "r0", Backend: b0}, {ID: "r1", Backend: b1},
	}}})
	// Pin synthetic load on r0.
	p.models["m"].replicas[0].inflight.Store(5)
	for i := 0; i < 10; i++ {
		if _, err := p.GenerateChunk(context.Background(), testReq("m")); err != nil {
			t.Fatal(err)
		}
	}
	if got := b0.calls.Load(); got != 0 {
		t.Fatalf("loaded replica took %d calls, want 0", got)
	}
	if got := b1.calls.Load(); got != 10 {
		t.Fatalf("idle replica took %d calls, want 10", got)
	}
}

// TestProbeEjectionAndReadmission covers the prober's two jobs: marking
// a replica unhealthy after consecutive probe failures (ejecting it from
// selection and /readyz), and — on recovery — re-admitting it plus
// closing a cooled-down open breaker without burning a user request.
func TestProbeEjectionAndReadmission(t *testing.T) {
	var probeFail atomic.Bool
	probeFail.Store(true)
	tel := telemetry.New(telemetry.Options{})
	b0, b1 := okBackend(), okBackend()
	p := mustPool(t, Config{
		Replicas: map[string][]Replica{"m": {
			{ID: "r0", Backend: b0}, {ID: "r1", Backend: b1},
		}},
		Probe: func(ctx context.Context, model string, r Replica) error {
			if r.ID == "r0" && probeFail.Load() {
				return errDown
			}
			return nil
		},
		Telemetry: tel,
	})
	setBreakers(p, failureThreshold, time.Second)
	clk := installClock(p)
	ctx := context.Background()

	// One failed probe is not ejection — transient blips don't flap.
	p.ProbeNow(ctx)
	if st := replicaState(t, p, "m", "r0").State; st != "serving" {
		t.Fatalf("after one probe failure state = %s, want serving", st)
	}
	p.ProbeNow(ctx)
	if st := replicaState(t, p, "m", "r0").State; st != "unhealthy" {
		t.Fatalf("after two probe failures state = %s, want unhealthy", st)
	}
	if got := tel.FleetReplicaState.Value("m", "r0", "unhealthy"); got != 1 {
		t.Fatalf("unhealthy gauge = %v, want 1", got)
	}
	if err := p.Ready("m"); err != nil {
		t.Fatalf("one healthy replica left, model must stay ready: %v", err)
	}

	// Unhealthy replicas take no traffic.
	for i := 0; i < 5; i++ {
		if _, err := p.GenerateChunk(ctx, testReq("m")); err != nil {
			t.Fatal(err)
		}
	}
	if got := b0.calls.Load(); got != 0 {
		t.Fatalf("unhealthy replica served %d calls", got)
	}

	// Recovery: one good probe re-admits immediately.
	probeFail.Store(false)
	p.ProbeNow(ctx)
	if st := replicaState(t, p, "m", "r0").State; st != "serving" {
		t.Fatalf("after recovery probe state = %s, want serving", st)
	}

	// Probe-driven breaker close: trip r0's breaker, cool down, probe.
	r0 := p.models["m"].replicas[0]
	r0.mu.Lock()
	r0.br.state = breakerOpen
	r0.br.openedAt = clk.now()
	r0.mu.Unlock()
	calls := b0.calls.Load()
	p.ProbeNow(ctx) // inside cooldown: stays open
	if st := replicaState(t, p, "m", "r0").State; st != "open" {
		t.Fatalf("probe closed a breaker inside its cooldown: %s", st)
	}
	clk.advance(time.Second)
	p.ProbeNow(ctx)
	if st := replicaState(t, p, "m", "r0").State; st != "serving" {
		t.Fatalf("cooled-down breaker not closed by healthy probe: %s", st)
	}
	if got := b0.calls.Load(); got != calls {
		t.Fatal("probe-driven re-admission must not consume user requests")
	}
	if got := tel.FleetBreakerTransitions.Value("m", "r0", "closed"); got != 1 {
		t.Fatalf("closed transitions = %v, want 1", got)
	}
}

// TestProberLoop exercises Start/Close: the background loop must run
// probes on its own and shut down cleanly.
func TestProberLoop(t *testing.T) {
	probed := make(chan struct{}, 16)
	p := mustPool(t, Config{
		Replicas: map[string][]Replica{"m": {{ID: "r0", Backend: okBackend()}}},
		Probe: func(ctx context.Context, model string, r Replica) error {
			select {
			case probed <- struct{}{}:
			default:
			}
			return nil
		},
	})
	p.probeInterval = 5 * time.Millisecond
	p.Start()
	select {
	case <-probed:
	case <-time.After(2 * time.Second):
		t.Fatal("prober never fired")
	}
	p.Close() // waits for the loop; double Close via cleanup must not panic
}
