package telemetry

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceStorePutGet(t *testing.T) {
	s := NewTraceStore(4)
	_, root := NewTracer("llmms").StartRoot(context.Background(), "query")
	round := root.Child("round")
	round.SetInt("round", 1)
	round.End(nil)
	s.Put(QueryTrace{ID: "q1", Strategy: "oua", Winner: "llama3", Rounds: 1}, root)
	root.End(nil) // the store's hold keeps the arena
	got, ok := s.Get("q1")
	if !ok {
		t.Fatal("stored trace not found")
	}
	if got.Winner != "llama3" || got.Rounds != 1 || len(got.Spans) != 2 || got.Spans[0].Attrs["round"] != "1" {
		t.Errorf("round-tripped trace mangled: %+v", got)
	}
	if _, ok := s.Get("nope"); ok {
		t.Error("Get returned a trace for an unknown ID")
	}
}

// TestTraceStoreHoldsAndReleasesArenas: a kept trace is held by the ring
// and nobody else, the trace it evicts goes back to the pool, and a trace
// the tail sampler turns away was never held.
func TestTraceStoreHoldsAndReleasesArenas(t *testing.T) {
	s := NewTraceStore(2)
	tracer := NewTracer("llmms")
	var roots []*Span
	for i := 0; i < 3; i++ {
		_, root := tracer.StartRoot(context.Background(), "query")
		root.Hold()
		root.End(nil)
		s.Put(QueryTrace{ID: fmt.Sprintf("q%d", i), Outcome: "ok"}, root)
		roots = append(roots, root)
	}
	holds := func(sp *Span) (int, bool) {
		sp.tr.mu.Lock()
		defer sp.tr.mu.Unlock()
		return sp.tr.holds, sp.tr.pooled
	}
	for i, want := range []int{1, 2, 2} { // q0 evicted: only this test's hold is left
		if h, pooled := holds(roots[i]); h != want || pooled {
			t.Errorf("trace q%d: %d holds, pooled %v; want %d, false", i, h, pooled, want)
		}
	}
	roots[0].Release()
	if h, pooled := holds(roots[0]); h != 0 || !pooled {
		t.Errorf("evicted trace: %d holds, pooled %v after the last release", h, pooled)
	}
	// Replacing q2 releases the arena it had.
	_, again := tracer.StartRoot(context.Background(), "query")
	s.Put(QueryTrace{ID: "q2", Outcome: "ok"}, again)
	again.End(nil)
	if h, _ := holds(roots[2]); h != 1 {
		t.Errorf("replaced trace still has %d holds, want this test's 1", h)
	}
	roots[1].Release()
	roots[2].Release()
	// Sampled out: the verdict comes before anything is taken.
	s.SetSampleRate(0)
	s.randf = func() float64 { return 0.5 }
	for i := 0; i < slowMinSamples; i++ {
		s.Put(QueryTrace{ID: "warm", Outcome: "ok", Elapsed: time.Millisecond}, nil)
	}
	_, dropped := tracer.StartRoot(context.Background(), "query")
	dropped.Hold()
	dropped.End(nil)
	if s.Put(QueryTrace{ID: "fast", Outcome: "ok", Elapsed: time.Microsecond}, dropped) {
		t.Fatal("ordinary trace retained at sample rate 0")
	}
	if h, _ := holds(dropped); h != 1 {
		t.Errorf("sampled-out trace has %d holds, want this test's 1", h)
	}
	dropped.Release()
}

// TestTraceStoreEvictionBound proves the store never exceeds its
// capacity and always evicts oldest-first.
func TestTraceStoreEvictionBound(t *testing.T) {
	const capacity = 8
	s := NewTraceStore(capacity)
	const total = 3*capacity + 1
	for i := 0; i < total; i++ {
		s.Put(QueryTrace{ID: fmt.Sprintf("q%03d", i)}, nil)
		if s.Len() > capacity {
			t.Fatalf("store grew to %d > capacity %d after %d puts", s.Len(), capacity, i+1)
		}
	}
	if s.Len() != capacity {
		t.Fatalf("Len = %d, want %d", s.Len(), capacity)
	}
	// Exactly the newest `capacity` IDs survive.
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("q%03d", i)
		_, ok := s.Get(id)
		if wantKept := i >= total-capacity; ok != wantKept {
			t.Errorf("Get(%s) = %v, want kept=%v", id, ok, wantKept)
		}
	}
}

func TestTraceStoreSameIDReplaces(t *testing.T) {
	s := NewTraceStore(4)
	s.Put(QueryTrace{ID: "q1", Outcome: "error"}, nil)
	s.Put(QueryTrace{ID: "q1", Outcome: "ok"}, nil)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate-ID put, want 1", s.Len())
	}
	got, _ := s.Get("q1")
	if got.Outcome != "ok" {
		t.Errorf("duplicate put did not replace: %+v", got)
	}
}

func TestTraceStoreListNewestFirst(t *testing.T) {
	s := NewTraceStore(3)
	for i := 1; i <= 5; i++ { // q1,q2 evicted
		s.Put(QueryTrace{ID: fmt.Sprintf("q%d", i)}, nil)
	}
	all := s.List(0)
	if len(all) != 3 {
		t.Fatalf("List(0) len = %d, want 3", len(all))
	}
	for i, want := range []string{"q5", "q4", "q3"} {
		if all[i].ID != want {
			t.Errorf("List[%d].ID = %s, want %s", i, all[i].ID, want)
		}
	}
	if lim := s.List(2); len(lim) != 2 || lim[0].ID != "q5" {
		t.Errorf("List(2) = %+v, want [q5 q4]", lim)
	}
}

func TestTraceSummaryTruncatesQuery(t *testing.T) {
	s := NewTraceStore(2)
	long := strings.Repeat("x", summaryQueryLimit+50)
	s.Put(QueryTrace{ID: "q1", Query: long}, nil)
	row := s.List(0)[0]
	if len(row.Query) >= len(long) {
		t.Errorf("summary query not truncated (len %d)", len(row.Query))
	}
	got, _ := s.Get("q1")
	if got.Query != long {
		t.Errorf("full trace query must stay untruncated")
	}
}

func TestTraceStoreConcurrent(t *testing.T) {
	s := NewTraceStore(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("q%d-%d", w, i)
				s.Put(QueryTrace{ID: id}, nil)
				s.Get(id)
				s.List(5)
				s.Len()
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 16 {
		t.Errorf("Len = %d, want capacity 16", s.Len())
	}
}

func TestNewQueryID(t *testing.T) {
	format := regexp.MustCompile(`^q[0-9a-f]{16}$`)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewQueryID()
		if !format.MatchString(id) {
			t.Fatalf("NewQueryID() = %q, want q + 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %q", id)
		}
		seen[id] = true
	}
}

// TestTraceStoreTailSampling drives the tail-based retention policy
// with a deterministic roll: errors and slow-tail traces always stick,
// ordinary traces obey the sample rate.
func TestTraceStoreTailSampling(t *testing.T) {
	s := NewTraceStore(1024)
	s.SetSampleRate(0) // keep only the tail
	roll := 0.5
	s.randf = func() float64 { return roll }

	// Warm the duration window past slowMinSamples with uniform fast
	// queries; until then everything counts as slow and is retained.
	for i := 0; i < slowMinSamples; i++ {
		tr := QueryTrace{ID: fmt.Sprintf("warm%d", i), Outcome: "ok", Elapsed: time.Millisecond}
		if !s.Put(tr, nil) {
			t.Fatalf("warmup trace %d dropped before the p99 estimate warmed up", i)
		}
	}

	// Ordinary fast ok trace: sampled out at rate 0. Strictly faster
	// than the window's uniform 1ms so it cannot tie the p99 (the slow
	// test is d >= p99, so an equal duration would count as slow).
	if s.Put(QueryTrace{ID: "fast", Outcome: "ok", Elapsed: time.Microsecond}, nil) {
		t.Error("ordinary trace retained at sample rate 0")
	}
	if s.SampledOut() != 1 {
		t.Errorf("SampledOut = %d, want 1", s.SampledOut())
	}
	if _, ok := s.Get("fast"); ok {
		t.Error("sampled-out trace is retrievable")
	}

	// Error outcome: always retained.
	if !s.Put(QueryTrace{ID: "err", Outcome: "error", Elapsed: time.Microsecond}, nil) {
		t.Error("error trace dropped by sampling")
	}

	// Slow tail: at or above p99 of the (1ms-uniform) window.
	if !s.Put(QueryTrace{ID: "slow", Outcome: "ok", Elapsed: 50 * time.Millisecond}, nil) {
		t.Error("slow-tail trace dropped by sampling")
	}

	// Partial rate: the deterministic roll of 0.5 keeps traces when the
	// rate exceeds it and drops them when it does not.
	s.SetSampleRate(0.75)
	if !s.Put(QueryTrace{ID: "kept", Outcome: "ok", Elapsed: time.Microsecond}, nil) {
		t.Error("roll 0.5 < rate 0.75 should retain")
	}
	s.SetSampleRate(0.25)
	if s.Put(QueryTrace{ID: "dropped", Outcome: "ok", Elapsed: time.Microsecond}, nil) {
		t.Error("roll 0.5 >= rate 0.25 should drop")
	}
}

// TestTraceStoreDefaultKeepsEverything proves the default rate of 1
// never drops, so existing behaviour is unchanged.
func TestTraceStoreDefaultKeepsEverything(t *testing.T) {
	s := NewTraceStore(1024)
	for i := 0; i < 100; i++ {
		if !s.Put(QueryTrace{ID: fmt.Sprintf("q%d", i), Outcome: "ok", Elapsed: time.Millisecond}, nil) {
			t.Fatalf("trace %d dropped at default sample rate", i)
		}
	}
	if s.SampledOut() != 0 {
		t.Errorf("SampledOut = %d, want 0", s.SampledOut())
	}
}
