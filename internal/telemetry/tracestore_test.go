package telemetry

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
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

// TestTraceStoreHoldsAndReleasesArenas: a stored trace is held by the
// ring and nobody else, and the trace it evicts goes back to the pool.
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

// fanoutTrace builds a trace shaped like the benchmark's fan-out query
// and stores it: 25 spans — the root, orchestrate, a stream open and a
// stream per model, each stream with the daemon's two grafted spans, and
// rounds of chunks whose score comes after the chunk ended, one of them
// pruned — 2.4 attributes a span, one span of five.
func fanoutTrace(tracer *Tracer, store *TraceStore, id string) {
	models := []string{"llama3:8b", "mistral:7b", "qwen2:7b"}
	_, root := tracer.StartRoot(bg, "query")
	root.Hold()
	root.SetAttr("strategy", "oua")
	orch := root.Child("orchestrate")
	var d SpanData
	for i, m := range models {
		open := root.Child("fleet.stream_open")
		open.SetAttr("model", m)
		open.SetAttr("replica", "r"+strconv.Itoa(i%2))
		open.End(nil)
		stream := orch.Child("modeld.stream")
		stream.SetAttr("model", m)
		for j, name := range []string{"engine.generate", "modeld.handle_generate"} {
			d.Reset()
			d.TraceID, d.Name, d.Service, d.Start = root.tr.id, name, "modeld", time.Now()
			d.SpanID[0], d.SpanID[7] = byte(i+1), byte(j+1)
			d.AddAttr("model", []byte(m))
			if j == 0 {
				d.AddAttr("batch_occupancy", []byte("2.500"))
				d.AddAttr("lines", []byte("43"))
			}
			stream.Graft(&d)
		}
		stream.End(nil)
	}
	for r, width := range []int{3, 3, 2} {
		round := orch.Child("round")
		round.SetInt("round", r+1)
		for _, m := range models[:width] {
			c := round.Child("chunk")
			c.SetInt("round", r+1)
			c.SetAttr("model", m)
			c.SetInt("tokens", 8)
			c.End(nil)
			c.write(true, "score", attrFloat|math.Float64bits(0.25)>>2)
			if r == 1 && m == models[2] {
				c.write(true, "pruned", attrText, "trailing by 0.155")
			}
		}
		if r == 2 {
			round.SetAttr("winner", models[0])
			round.SetAttr("winner_reason", "budget settled")
		}
		round.End(nil)
	}
	orch.End(nil)
	root.End(nil)
	store.Put(QueryTrace{ID: id, TraceID: root.TraceID(), Strategy: "oua", Query: "What happens if you swallow gum?",
		Outcome: "ok", Winner: models[0], TokensUsed: 84, Rounds: 6}, root)
	root.Release()
}

// TestStoredTraceFootprint bounds what the trace ring holds a trace with.
// The arenas it draws have first been grown, as pooled arenas are in a
// server, by a 50-span trace with eight overflowing spans and a kilobyte
// of attribute text; each is then filled with a fan-out query's 25 spans.
// A stored trace keeps the blocks and overflow runs its spans use and no
// more, and its text in a buffer it fills: 7 357 bytes, header and ring
// share included (8 253 when the text keeps the arena's room).
func TestStoredTraceFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its puts under the race detector")
	}
	if size := unsafe.Sizeof([blockSpans]Span{}); size > 2048 {
		t.Fatalf("a block of %d slots is %d bytes, past the 2 KiB size class", blockSpans, size)
	}
	const bound = 7725 // bytes a stored trace: the 7 357 it measures plus 5 %
	tracer := NewTracer("llmms")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	roots := make([]*Span, TraceCapacity)
	for i := range roots {
		_, roots[i] = tracer.StartRoot(bg, "query")
		for j := 1; j < 50; j++ {
			c := roots[i].Child("c")
			for k := 0; j%6 == 0 && k < inlineAttrs+1; k++ { // 8 spans of five attributes
				c.SetInt("k"+strconv.Itoa(k), j)
			}
			c.SetAttr("model", "mistral:7b-instruct") // 49 × 19 bytes: a kilobyte of text room
			c.End(nil)
		}
	}
	for _, root := range roots {
		root.End(nil) // back to the pool: five blocks and eight overflow runs each
	}
	roots = nil
	store := NewTraceStore(TraceCapacity)
	for i := 0; i < TraceCapacity; i++ {
		fanoutTrace(tracer, store, "q"+strconv.Itoa(i))
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(after.HeapAlloc-before.HeapAlloc) / TraceCapacity
	runtime.KeepAlive(store)
	if got, _ := store.Get("q0"); len(got.Spans) != 25 {
		t.Fatalf("a stored fan-out trace reads %d spans, want 25", len(got.Spans))
	}
	t.Logf("%.0f bytes a stored trace", per)
	if per > bound {
		t.Errorf("a stored fan-out trace holds %.0f bytes, want at most %d", per, bound)
	}
}

// TestStoredTraceTextFits: storing a trace moves its text into a buffer it
// fills, within textClass bytes, and hands the roomy buffer it was written
// in to the next query, so that queries stored into a full ring allocate
// no text buffer; and writes that come after the store — a late score on
// an ended chunk, a span grafted under a stream that outlived the query —
// still land, the text before them intact.
func TestStoredTraceTextFits(t *testing.T) {
	tracer := NewTracer("llmms")
	store := NewTraceStore(4)
	long := strings.Repeat("m", 100)
	ids := []string{"q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7"}
	next := 0
	// query stores a trace of 303 bytes of text, written in a buffer of
	// 512, and every other time one of 403.
	query := func() (root, stream, chunk *Span) {
		root = tracer.startRoot("query", "", "")
		root.Hold()
		root.SetAttr("strategy", "oua")
		stream = root.Child("modeld.stream")
		chunk = root.Child("chunk")
		chunk.SetAttr("a", long)
		chunk.SetAttr("b", long)
		chunk.SetAttr("c", long)
		if next%2 == 1 {
			chunk.SetAttr("d", long)
		}
		chunk.End(nil)
		store.Put(QueryTrace{ID: ids[next%len(ids)]}, root)
		next++
		return root, stream, chunk
	}
	fits := func(root *Span) {
		t.Helper()
		root.tr.mu.Lock()
		defer root.tr.mu.Unlock()
		if n, c := len(root.tr.text), cap(root.tr.text); n != 303 || c-n >= textClass {
			t.Fatalf("a stored trace keeps %d bytes of text in a buffer of %d", n, c)
		}
	}

	root, stream, chunk := query()
	fits(root)
	chunk.write(true, "pruned", attrText, "trailing by 0.155")
	var d SpanData
	d.TraceID, d.Name, d.Service, d.Start = root.tr.id, "engine.generate", "modeld", time.Now()
	d.SpanID[7] = 1
	d.AddAttr("model", []byte("mistral:7b"))
	stream.Graft(&d)
	stream.End(nil)
	root.End(nil)
	root.Release()
	got, _ := store.Get("q0")
	attrs := map[string]map[string]string{}
	for _, r := range got.Spans {
		attrs[r.Name] = r.Attrs
	}
	if a := attrs["chunk"]; a["a"] != long || a["c"] != long || a["pruned"] != "trailing by 0.155" {
		t.Errorf("the chunk reads %v after a late write", a)
	}
	if attrs["query"]["strategy"] != "oua" || attrs["engine.generate"]["model"] != "mistral:7b" {
		t.Errorf("the trace reads %v after a graft", attrs)
	}

	if raceEnabled {
		t.Skip("sync.Pool drops a share of its puts under the race detector")
	}
	cycle := func() {
		root, stream, _ := query()
		stream.End(nil)
		root.End(nil)
		root.Release()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("a query stored into a full ring allocates %v times, want 0", n)
	}
	next = 0
	root, _, _ = query()
	fits(root)
	root.End(nil)
	root.Release()
}
