package core

import (
	"cmp"
	"context"
	"errors"
	"sync"
	"time"

	"llmms/internal/llm"
)

// FaultBackend wraps an inner Backend with scripted fault injection for
// tests and benchmarks: per-model added latency (to prove fan-out rounds
// cost the max, not the sum), errors on specific call numbers (to
// exercise retry recovery and exhaustion), and permanent failures (to
// exercise prune-on-failure and the everyone-failed path). The zero
// schedule is a transparent pass-through.
//
// Schedules are keyed by name. A plain FaultBackend keys every lookup by
// the request's model, reproducing the historical behavior; a Replica
// view (see Replica) keys lookups by "model@replica" instead, so one
// FaultBackend over one shared engine can script divergent behavior for
// each member of a fleet.Pool replica set — the slow replica, the dead
// replica, the one that breaks streams mid-answer.
//
// FaultBackend is safe for concurrent use, like any orchestrator
// backend.
type FaultBackend struct {
	inner Backend

	mu      sync.Mutex
	calls   map[string]int
	latency map[string]time.Duration
	failOn  map[string]map[int]error
	failAll map[string]error

	// Streaming schedule. Streams are opt-in (EnableStreams) so existing
	// fault schedules keyed on GenerateChunk call numbers keep meaning
	// what they say: an un-enabled FaultBackend serves every session by
	// chunk calls, one scheduled GenerateChunk per drain.
	streamsOn    bool
	openFail     map[string]error
	breakAfter   map[string]int
	streamOpens  map[string]int
	streamCloses map[string]int
}

// NewFaultBackend wraps inner with an empty fault schedule.
func NewFaultBackend(inner Backend) *FaultBackend {
	return &FaultBackend{
		inner:        inner,
		calls:        make(map[string]int),
		latency:      make(map[string]time.Duration),
		failOn:       make(map[string]map[int]error),
		failAll:      make(map[string]error),
		openFail:     make(map[string]error),
		breakAfter:   make(map[string]int),
		streamOpens:  make(map[string]int),
		streamCloses: make(map[string]int),
	}
}

// Unwrap exposes the inner backend to llm.AsStreaming capability probes.
// FaultBackend decorates streams itself (OpenStream below), so the probe
// finds the fault layer first; Unwrap exists for wrappers stacked on top.
func (f *FaultBackend) Unwrap() llm.Backend { return f.inner }

// ReplicaKey composes the schedule key a Replica view uses for model:
// "model@id". Tests script a replica's behavior with e.g.
// f.SetLatency(core.ReplicaKey(model, "r1"), 20*time.Millisecond).
func ReplicaKey(model, id string) string { return model + "@" + id }

// Replica returns a Backend view of f for one fleet replica: requests
// pass through to the shared inner backend unchanged, but every schedule
// lookup and call count is keyed ReplicaKey(req.Model, id) instead of
// req.Model. The view shares f's mutex and accounting, so a test can
// hand N views of one FaultBackend to a fleet pool and script each
// replica independently.
func (f *FaultBackend) Replica(id string) *FaultReplica {
	return &FaultReplica{f: f, id: id}
}

// FaultReplica is one replica's view of a FaultBackend; see Replica.
type FaultReplica struct {
	f  *FaultBackend
	id string
}

// ID returns the replica identifier the view keys its schedule under.
func (r *FaultReplica) ID() string { return r.id }

// GenerateChunk implements Backend under the replica's schedule key.
func (r *FaultReplica) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	return r.f.generateKeyed(ctx, req, ReplicaKey(req.Model, r.id))
}

// OpenStream implements llm.StreamingBackend under the replica's
// schedule key.
func (r *FaultReplica) OpenStream(ctx context.Context, req llm.ChunkRequest) (llm.ChunkStream, error) {
	return r.f.openStreamKeyed(ctx, req, ReplicaKey(req.Model, r.id))
}

// SetLatency adds d of simulated transport delay to every call for key
// (a model name, or a ReplicaKey on replica views). The delay respects
// context cancellation.
func (f *FaultBackend) SetLatency(key string, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency[key] = d
}

// FailCall makes the nth GenerateChunk call (1-based, counted per key)
// for key return err instead of reaching the inner backend.
func (f *FaultBackend) FailCall(key string, nth int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failOn[key] == nil {
		f.failOn[key] = make(map[int]error)
	}
	f.failOn[key][nth] = err
}

// FailAlways makes every call and every stream open for key return err —
// a permanently dead daemon (or dead replica, with a ReplicaKey).
func (f *FaultBackend) FailAlways(key string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAll[key] = err
}

// ClearFail removes key's permanent failure — the dead daemon coming
// back, for probe-driven re-admission tests.
func (f *FaultBackend) ClearFail(key string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.failAll, key)
}

// Calls reports how many GenerateChunk calls key has received, including
// the ones that were failed.
func (f *FaultBackend) Calls(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[key]
}

// TotalCalls reports the GenerateChunk calls across all keys.
func (f *FaultBackend) TotalCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.calls {
		n += c
	}
	return n
}

// EnableStreams makes the backend advertise persistent generation
// streams, delegating opens to the inner backend (which must itself be
// an llm.StreamingBackend). Off by default so chunk-count fault
// schedules keep their meaning.
func (f *FaultBackend) EnableStreams() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.streamsOn = true
}

// FailStreamOpen makes key's next OpenStream return err — a transient
// open failure, which the reopen ladder's next attempt gets past.
func (f *FaultBackend) FailStreamOpen(key string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.openFail[key] = err
}

// BreakStreamAfter makes key's next stream fail after delivering n
// tokens: its first Next calls drain normally up to the break point
// (partial slices included), then the stream errors — the mid-answer
// connection drop the reopen ladder must survive without losing text.
// The break is spent on that stream; the one reopened after it is whole.
func (f *FaultBackend) BreakStreamAfter(key string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.breakAfter[key] = n
}

// StreamOpens reports how many streams key has opened successfully.
func (f *FaultBackend) StreamOpens(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.streamOpens[key]
}

// StreamCloses reports how many of key's streams have been closed — the
// leak check: after a query, StreamOpens == StreamCloses for every key.
func (f *FaultBackend) StreamCloses(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.streamCloses[key]
}

// OpenStream implements llm.StreamingBackend with fault injection. When
// streams are not enabled the session is lifted (llm.Sessions) onto the
// key's own GenerateChunk schedule, as a backend that cannot stream is.
func (f *FaultBackend) OpenStream(ctx context.Context, req llm.ChunkRequest) (llm.ChunkStream, error) {
	return f.openStreamKeyed(ctx, req, req.Model)
}

// openStreamKeyed is OpenStream with the schedule key made explicit —
// req.Model on the plain backend, ReplicaKey(model, id) on replica
// views.
func (f *FaultBackend) openStreamKeyed(ctx context.Context, req llm.ChunkRequest, key string) (llm.ChunkStream, error) {
	f.mu.Lock()
	on, d := f.streamsOn, f.latency[key]
	failErr := cmp.Or(f.failAll[key], f.openFail[key])
	if on {
		delete(f.openFail, key)
	}
	f.mu.Unlock()

	if !on {
		return llm.Sessions(keyedChunks{f, key}).OpenStream(ctx, req)
	}
	if d > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(d):
		}
	}
	if failErr != nil {
		return nil, failErr
	}
	inner, err := llm.Sessions(f.inner).OpenStream(ctx, req)
	if err != nil {
		return nil, err
	}
	s := &faultStream{inner: inner, f: f, key: key}
	f.mu.Lock()
	f.streamOpens[key]++
	s.breakAfter, s.breaks = f.breakAfter[key]
	delete(f.breakAfter, key)
	f.mu.Unlock()
	return s, nil
}

// keyedChunks is the backend's GenerateChunk under one schedule key, and
// nothing else: what a session is lifted from when streams are off.
type keyedChunks struct {
	f   *FaultBackend
	key string
}

func (k keyedChunks) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	return k.f.generateKeyed(ctx, req, k.key)
}

// errStreamBroken is the scripted mid-stream failure BreakStreamAfter
// injects.
var errStreamBroken = errors.New("core: fault-injected stream break")

// faultStream wraps an inner stream with the break schedule and the
// open/close accounting.
type faultStream struct {
	inner      llm.ChunkStream
	f          *FaultBackend
	key        string
	delivered  int
	breakAfter int
	breaks     bool
	closeOnce  sync.Once
}

// Next delegates to the inner stream, capping each drain at the tokens
// remaining before the scripted break so partial text precedes the
// error, and failing once the break point is reached.
func (s *faultStream) Next(ctx context.Context, maxTokens int) (llm.Chunk, error) {
	if s.breaks {
		left := s.breakAfter - s.delivered
		if left <= 0 {
			return llm.Chunk{}, errStreamBroken
		}
		if maxTokens <= 0 || maxTokens > left {
			maxTokens = left
		}
	}
	c, err := s.inner.Next(ctx, maxTokens)
	s.delivered += c.EvalCount
	return c, err
}

// Buffered passes through the inner stream's prefetch count.
func (s *faultStream) Buffered() int {
	if bs, ok := s.inner.(llm.BufferedStream); ok {
		return bs.Buffered()
	}
	return 0
}

// Close closes the inner stream and counts the close exactly once.
func (s *faultStream) Close() error {
	var err error
	s.closeOnce.Do(func() {
		err = s.inner.Close()
		s.f.mu.Lock()
		s.f.streamCloses[s.key]++
		s.f.mu.Unlock()
	})
	return err
}

// GenerateChunk implements Backend: it applies the model's latency and
// failure schedule, then delegates to the inner backend.
func (f *FaultBackend) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	return f.generateKeyed(ctx, req, req.Model)
}

// generateKeyed is GenerateChunk with the schedule key made explicit.
func (f *FaultBackend) generateKeyed(ctx context.Context, req llm.ChunkRequest, key string) (llm.Chunk, error) {
	f.mu.Lock()
	f.calls[key]++
	n := f.calls[key]
	d := f.latency[key]
	err := f.failAll[key]
	if err == nil && f.failOn[key] != nil {
		err = f.failOn[key][n]
	}
	f.mu.Unlock()

	if d > 0 {
		select {
		case <-ctx.Done():
			return llm.Chunk{}, ctx.Err()
		case <-time.After(d):
		}
	}
	if err != nil {
		return llm.Chunk{}, err
	}
	return f.inner.GenerateChunk(ctx, req)
}
