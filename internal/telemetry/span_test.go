package telemetry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"llmms/internal/core"
)

func TestSpanTreeConstruction(t *testing.T) {
	tr := NewTracer("test")
	ctx, root := tr.StartRoot(context.Background(), "query")
	if root == nil {
		t.Fatal("StartRoot returned nil span")
	}
	root.SetAttr("strategy", "oua")

	cctx, child := StartSpan(ctx, "cache.lookup")
	child.SetAttr("tier", "miss")
	child.End(nil)

	_, grand := StartSpan(cctx, "inner")
	grand.End(nil)

	root.End(nil)
	recs := root.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		if r.TraceID != root.TraceID() {
			t.Errorf("span %q trace ID = %q, want %q", r.Name, r.TraceID, root.TraceID())
		}
		if r.Service != "test" {
			t.Errorf("span %q service = %q, want test", r.Name, r.Service)
		}
		byName[r.Name] = r
	}
	if byName["cache.lookup"].ParentID != root.SpanID() {
		t.Errorf("cache.lookup parent = %q, want root %q", byName["cache.lookup"].ParentID, root.SpanID())
	}
	if byName["inner"].ParentID != byName["cache.lookup"].SpanID {
		t.Errorf("inner parent = %q, want cache.lookup %q", byName["inner"].ParentID, byName["cache.lookup"].SpanID)
	}
	if byName["query"].ParentID != "" {
		t.Errorf("root parent = %q, want empty", byName["query"].ParentID)
	}
	if byName["cache.lookup"].Attrs["tier"] != "miss" {
		t.Errorf("tier attr = %q, want miss", byName["cache.lookup"].Attrs["tier"])
	}
	if byName["query"].Status != "ok" {
		t.Errorf("root status = %q, want ok", byName["query"].Status)
	}
}

func TestSpanNilSafety(t *testing.T) {
	// All span entry points must be no-ops on nil receivers: a disabled
	// tracer yields nil spans and the call sites never branch.
	var tr *Tracer
	ctx, root := tr.StartRoot(context.Background(), "query")
	if root != nil {
		t.Fatal("nil tracer produced a span")
	}
	root.SetAttr("k", "v")
	root.End(nil)
	if got := root.Traceparent(); got != "" {
		t.Errorf("nil span traceparent = %q, want empty", got)
	}
	if recs := root.Records(); recs != nil {
		t.Errorf("nil span records = %v, want nil", recs)
	}
	// StartSpan with no span in context is also a no-op.
	sctx, sp := StartSpan(ctx, "child")
	if sp != nil {
		t.Fatal("StartSpan without parent produced a span")
	}
	if sctx != ctx {
		t.Error("StartSpan without parent should return ctx unchanged")
	}
	if c := sp.Child("x"); c != nil {
		t.Error("nil span Child produced a span")
	}
}

func TestSpanErrorStatus(t *testing.T) {
	tr := NewTracer("test")
	_, root := tr.StartRoot(context.Background(), "query")
	child := root.Child("work")
	child.End(context.DeadlineExceeded)
	root.End(nil)
	for _, r := range root.Records() {
		if r.Name != "work" {
			continue
		}
		if r.Status != "error" {
			t.Errorf("status = %q, want error", r.Status)
		}
		if r.Error != context.DeadlineExceeded.Error() {
			t.Errorf("error = %q, want %q", r.Error, context.DeadlineExceeded)
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer("test")
	_, root := tr.StartRoot(context.Background(), "query")
	child := root.Child("work")
	child.End(nil)
	child.End(context.Canceled) // must not double-append or flip status
	root.End(nil)
	root.End(nil)
	recs := root.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records after double End, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Name == "work" && r.Status != "ok" {
			t.Errorf("second End overwrote status: %q", r.Status)
		}
	}
}

func TestSpanCapDropsExcess(t *testing.T) {
	tr := NewTracer("test")
	_, root := tr.StartRoot(context.Background(), "query")
	for i := 0; i < MaxSpansPerTrace+10; i++ {
		root.Child("c").End(nil)
	}
	root.End(nil)
	recs := root.Records()
	if len(recs) != MaxSpansPerTrace {
		t.Fatalf("got %d records, want cap %d", len(recs), MaxSpansPerTrace)
	}
	var rootRec *SpanRecord
	for i := range recs {
		if recs[i].Name == "query" {
			rootRec = &recs[i]
		}
	}
	// The root ends last and is one of the dropped appends; the drop
	// count still surfaces — just not on the root record itself — so
	// accept either placement.
	if rootRec != nil && rootRec.Attrs["dropped_spans"] == "" {
		t.Error("root record present but missing dropped_spans attr")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer("test")
	_, root := tr.StartRoot(context.Background(), "query")
	h := root.Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") {
		t.Fatalf("traceparent %q: want 55 bytes with 00- prefix", h)
	}
	tid, sid, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected own output", h)
	}
	if tid != root.TraceID() || sid != root.SpanID() {
		t.Errorf("parsed (%q, %q), want (%q, %q)", tid, sid, root.TraceID(), root.SpanID())
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	cases := []string{
		"",
		"garbage",
		"00-short-short-01",
		"ff-0123456789abcdef0123456789abcdef-0123456789abcdef-01",  // bad version
		"00-00000000000000000000000000000000-0123456789abcdef-01",  // zero trace ID
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",  // zero span ID
		"00-0123456789abcdef0123456789abcdeZ-0123456789abcdef-01",  // non-hex
		"00-0123456789abcdef0123456789abcdef_0123456789abcdef-01",  // bad separator
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01x", // too long
		"00-0123456789abcdef0123456789ABCDEF-0123456789ABCDEF-01",  // uppercase hex
	}
	for _, h := range cases {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) = ok, want reject", h)
		}
	}
}

// refTraceparent parses h by the letter of W3C Trace Context's grammar
// for version 00, the one version understood here:
//
//	traceparent = version "-" trace-id "-" parent-id "-" trace-flags
//	version     = 2HEXDIGLC   ; "00"
//	trace-id    = 32HEXDIGLC  ; not all zeros
//	parent-id   = 16HEXDIGLC  ; not all zeros
//	trace-flags = 2HEXDIGLC
func refTraceparent(h string) (traceID, parentID string, ok bool) {
	fields := strings.Split(h, "-")
	if len(fields) != 4 || fields[0] != "00" {
		return "", "", false
	}
	for i, n := range []int{2, 32, 16, 2} {
		if len(fields[i]) != n || strings.Trim(fields[i], "0123456789abcdef") != "" {
			return "", "", false
		}
	}
	if strings.Trim(fields[1], "0") == "" || strings.Trim(fields[2], "0") == "" {
		return "", "", false
	}
	return fields[1], fields[2], true
}

// FuzzTraceparent holds ParseTraceparent to the spec-literal reader: it
// accepts exactly what refTraceparent accepts, with the same IDs, and a
// root started from an accepted header joins that trace under that
// parent and renders the trace back in its own traceparent.
func FuzzTraceparent(f *testing.F) {
	_, root := NewTracer("test").StartRoot(context.Background(), "query")
	f.Add(root.Traceparent())
	root.End(nil)
	for _, h := range []string{
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-00",
		"00-0123456789abcdef0123456789ABCDEF-0123456789abcdef-01",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-0A",
		"01-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"00-00000000000000000000000000000000-0123456789abcdef-01",
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01-",
		"00-+123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, ok := ParseTraceparent(h)
		wantTID, wantSID, wantOK := refTraceparent(h)
		if ok != wantOK || tid != wantTID || sid != wantSID {
			t.Fatalf("ParseTraceparent(%q) = %q, %q, %v; the spec reads %q, %q, %v", h, tid, sid, ok, wantTID, wantSID, wantOK)
		}
		if !ok {
			return
		}
		_, root := NewTracer("modeld").StartRootFrom(context.Background(), "modeld.handle_generate", tid, sid)
		root.Hold()
		defer root.Release()
		back, _, ok := ParseTraceparent(root.Traceparent())
		root.End(nil)
		if recs := root.Records(); !ok || back != tid || root.TraceID() != tid || len(recs) != 1 || recs[0].ParentID != sid {
			t.Fatalf("a root started from %q renders %q (trace %q, records %+v)", h, root.Traceparent(), root.TraceID(), recs)
		}
	})
}

func TestStartRootFromJoinsUpstream(t *testing.T) {
	up := NewTracer("client")
	_, parent := up.StartRoot(context.Background(), "modeld.generate")
	tid, sid, ok := ParseTraceparent(parent.Traceparent())
	if !ok {
		t.Fatal("parse failed")
	}
	down := NewTracer("modeld")
	_, root := down.StartRootFrom(context.Background(), "modeld.handle_generate", tid, sid)
	if root.TraceID() != parent.TraceID() {
		t.Errorf("daemon root trace = %q, want upstream %q", root.TraceID(), parent.TraceID())
	}
	root.End(nil)
	recs := root.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0].ParentID != parent.SpanID() {
		t.Errorf("daemon root parent = %q, want upstream span %q", recs[0].ParentID, parent.SpanID())
	}
	if recs[0].Service != "modeld" {
		t.Errorf("service = %q, want modeld", recs[0].Service)
	}
}

func TestAdoptFiltersForeignSpans(t *testing.T) {
	tr := NewTracer("client")
	_, root := tr.StartRoot(context.Background(), "query")
	good := SpanRecord{
		TraceID: root.TraceID(), SpanID: "00000000000000aa",
		Name: "remote", Service: "modeld", Start: time.Now(),
	}
	foreign := SpanRecord{
		TraceID: "ffffffffffffffffffffffffffffffff", SpanID: "00000000000000bb",
		Name: "stray", Service: "modeld", Start: time.Now(),
	}
	noID := SpanRecord{TraceID: root.TraceID(), Name: "anon"}
	root.Adopt([]SpanRecord{good, foreign, noID})
	root.End(nil)
	recs := root.Records()
	if len(recs) != 2 { // root + good
		t.Fatalf("got %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Name == "stray" || r.Name == "anon" {
			t.Errorf("adopted invalid record %q", r.Name)
		}
	}
}

func TestNewIDsAreUniqueHex(t *testing.T) {
	// One random read per trace: the trace ID and the base every span ID
	// of the arena is derived from. Unique and non-zero all the same.
	tr := NewTracer("test")
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		_, root := tr.StartRoot(context.Background(), "query")
		root.Hold()
		ids := []string{root.TraceID(), root.SpanID()}
		for j := 0; j < 20; j++ {
			ids = append(ids, root.Child("c").SpanID())
		}
		root.Release()
		if len(ids[0]) != 32 {
			t.Fatalf("trace id %q: want 32 hex characters", ids[0])
		}
		for _, id := range ids {
			var b [16]byte
			if !parseID(b[:len(id)/2], id) || (len(id) != 16 && len(id) != 32) {
				t.Fatalf("id %q is not non-zero hex of an ID's length", id)
			}
			if seen[id] {
				t.Fatalf("duplicate ID %q", id)
			}
			seen[id] = true
		}
	}
}

// TestJoinedTraceDerivesSpanIDs: a daemon's root joins the caller's trace
// without a random read, so what keeps two requests' spans apart is the
// caller's span ID each was made under.
func TestJoinedTraceDerivesSpanIDs(t *testing.T) {
	up, down := NewTracer("client"), NewTracer("modeld")
	_, query := up.StartRoot(context.Background(), "query")
	query.Hold()
	defer query.Release()
	seen := map[string]bool{query.SpanID(): true}
	for i := 0; i < 50; i++ {
		call := query.Child("modeld.stream")
		tid, sid, ok := ParseTraceparent(call.Traceparent())
		if !ok || seen[sid] {
			t.Fatalf("call %d: traceparent %q (ok=%v) repeats or fails", i, call.Traceparent(), ok)
		}
		seen[sid] = true
		_, root := down.StartRootFrom(context.Background(), "modeld.handle_generate", tid, sid)
		root.Hold()
		for _, id := range []string{root.SpanID(), root.Child("engine.generate").SpanID()} {
			if seen[id] {
				t.Fatalf("call %d: daemon span ID %s collides within the trace", i, id)
			}
			seen[id] = true
		}
		root.Release()
	}
}

// TestDroppedSpansCountedAtReadTime: the drop count is a field of the
// trace, stamped on the root whenever the trace is read — so spans refused
// after the root ended (grafted daemon records, a late child) are counted
// too, where the count used to be frozen into the root at its End.
func TestDroppedSpansCountedAtReadTime(t *testing.T) {
	tr := NewTracer("test")
	_, root := tr.StartRoot(context.Background(), "query")
	root.Hold()
	defer root.Release()
	for i := 0; i < MaxSpansPerTrace-11; i++ {
		root.Child("c").End(nil)
	}
	root.End(nil)
	if _, dropped := root.counts(); dropped != 0 {
		t.Fatalf("dropped %d spans below the cap", dropped)
	}
	var recs []SpanRecord
	for i := 0; i < 25; i++ { // 10 fit, 15 do not
		recs = append(recs, SpanRecord{TraceID: root.TraceID(), SpanID: fmt.Sprintf("%016x", 0xabc000+i), Name: "remote", Status: "ok"})
	}
	root.Adopt(recs)
	if c := root.Child("late"); c != nil { // 16
		t.Fatal("a span started past the cap")
	}
	got := root.Records()
	rootRec := got[MaxSpansPerTrace-11] // records read back in end order
	if len(got) != MaxSpansPerTrace || rootRec.Name != "query" {
		t.Fatalf("%d records, %q where the root ended; want the cap and the root", len(got), rootRec.Name)
	}
	if rootRec.Attrs["dropped_spans"] != "16" {
		t.Fatalf("root attrs %v, want dropped_spans 16", rootRec.Attrs)
	}
	if _, dropped := root.counts(); dropped != 16 {
		t.Fatalf("counts reports %d dropped, want 16", dropped)
	}
}

// TestAttrsTypedBoundedAndSorted pins how attributes read back: numbers as
// the strings call sites used to format, a key set twice keeps the later
// value, a key past the inline capacity is counted on the root, an
// over-long value is cut, and Walk lends them sorted by key.
func TestAttrsTypedBoundedAndSorted(t *testing.T) {
	tr := NewTracer("test")
	_, root := tr.StartRoot(context.Background(), "query")
	root.Hold()
	defer root.Release()
	sp := root.Child("route.predict")
	sp.SetAttr("outcome", "probe")
	sp.SetAttr("outcome", "topk")
	sp.SetInt("cluster", -3)
	sp.SetFloat("similarity", 0.81249)
	sp.SetList("models", []string{"llama3:8b", "mistral:7b"})
	sp.SetList("none", nil)
	sp.SetAttr("long", strings.Repeat("x", 1000))
	for _, k := range []string{"g", "h", "i", "j"} { // two fit
		sp.SetInt(k, 1)
	}
	sp.End(nil)
	sp.SetAttr("outcome", "late") // after End: ignored
	root.End(nil)
	var keys []string
	root.Walk(func(d SpanData) {
		if d.Name == "route.predict" {
			for _, a := range d.Attrs {
				keys = append(keys, a.Key)
			}
		}
	})
	if want := []string{"cluster", "g", "h", "long", "models", "none", "outcome", "similarity"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("walked keys %v, want %v", keys, want)
	}
	recs := root.Records() // in end order: the child, then the root
	got := recs[0].Attrs
	want := map[string]string{"outcome": "topk", "cluster": "-3", "similarity": "0.812", "models": "llama3:8b,mistral:7b",
		"none": "", "long": strings.Repeat("x", maxTextBytes), "g": "1", "h": "1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attrs %v, want %v", got, want)
	}
	if recs[1].Attrs["dropped_attrs"] != "2" {
		t.Fatalf("root attrs %v, want dropped_attrs 2", recs[1].Attrs)
	}
}

// TestSpanAllocatesNothing pins the arena's point: in steady state a
// trace's spans, attributes and ends are writes into a pooled arena. The
// one thing a public entry point still allocates is the context node it
// must return — a context cannot be pooled — so the machinery is measured
// under startRoot and Child, and StartRoot/StartSpan are held to exactly
// their context nodes.
func TestSpanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its puts under the race detector")
	}
	tracer := NewTracer("test")
	trace := func() {
		root := tracer.startRoot("query", "", "")
		root.SetAttr("strategy", "oua")
		a := root.Child("cache.lookup")
		a.SetAttr("tier", "miss")
		a.End(nil)
		b := root.Child("gate.wait")
		b.SetInt("weight", 3)
		b.End(nil)
		c := b.Child("route.predict")
		c.SetAttr("outcome", "topk")
		c.SetFloat("similarity", 0.812)
		c.SetList("models", []string{"llama3:8b", "mistral:7b"})
		c.End(errBoom)
		w := root.Child("engine.generate") // six attributes: an overflow run
		for i, k := range []string{"batch_occupancy", "lines", "model", "replica", "tokens", "weight"} {
			w.SetInt(k, i)
		}
		w.End(nil)
		root.End(nil)
	}
	trace()
	if n := testing.AllocsPerRun(200, trace); n != 0 {
		t.Errorf("a root, 4 children, 12 attributes and their ends allocate %v times, want 0", n)
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() {
		rctx, root := tracer.StartRoot(ctx, "query")
		_, sp := StartSpan(rctx, "child")
		sp.SetAttr("model", "m")
		sp.End(nil)
		root.End(nil)
	}); n != 2 {
		t.Errorf("the benchmark's replay (StartRoot, StartSpan, SetAttr, End, End) allocates %v times, want its 2 context nodes", n)
	}

	// A full observer cycle into a full ring: the observer itself and the
	// header's trace ID string.
	tel := New(Options{})
	tel.Traces = NewTraceStore(4)
	ids := []string{"q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7"}
	models := []string{"llama3:8b", "mistral:7b", "qwen2:7b"}
	next := 0
	cycle := func() {
		root := tracer.startRoot("query", "", "")
		root.Hold()
		obs := tel.StartQuery(ids[next%len(ids)], "oua", "why is the sky blue?")
		next++
		orch := root.Child("orchestrate")
		obs.BindSpans(root, orch)
		now := time.Now()
		for round := 1; round <= 6; round++ {
			obs.RecordEvent(core.Event{Type: core.EventRound, Strategy: core.StrategyOUA, Round: round, Time: now, Elapsed: time.Duration(round)})
			for _, m := range models {
				obs.RecordEvent(core.Event{Type: core.EventChunk, Strategy: core.StrategyOUA, Round: round, Model: m, Tokens: 8, Time: now, Elapsed: time.Millisecond, Attempts: 1})
			}
			for _, m := range models {
				obs.RecordEvent(core.Event{Type: core.EventScore, Strategy: core.StrategyOUA, Round: round, Model: m, Score: 0.5, Time: now})
			}
		}
		obs.RecordEvent(core.Event{Type: core.EventPrune, Strategy: core.StrategyOUA, Round: 6, Model: models[2], Reason: "trailing by 0.200", Time: now})
		obs.RecordEvent(core.Event{Type: core.EventWinner, Strategy: core.StrategyOUA, Model: models[0], Tokens: 144, Reason: "budget settled", Time: now, Elapsed: time.Millisecond})
		orch.End(nil)
		root.End(nil)
		if tr := obs.Finish(nil); tr.SpanCount != 26 {
			t.Fatalf("cycle finished %d spans, want 26", tr.SpanCount)
		}
		root.Release()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n > 2 {
		t.Errorf("an observer cycle of 6 rounds x 3 chunks into a full ring allocates %v times, want at most 2", n)
	}
}

var errBoom = errors.New("boom")

// TestPooledArenaIsBounded: an arena goes back to the pool only while its
// text and overflow runs are within a constant, so a trace whose spans
// failed with long errors, or carried many attributes, does not lend its
// room to the light traces that draw the arena after it, nor do they carry
// it into the ring.
func TestPooledArenaIsBounded(t *testing.T) {
	tracer := NewTracer("test")
	store := NewTraceStore(4)
	errLong := errors.New(strings.Repeat("x", maxTextBytes))
	for i := 0; i < 16; i++ { // the pool may hand the light trace another arena: many tries
		_, heavy := tracer.StartRoot(bg, "heavy")
		for j := 0; j < 4*blockSpans; j++ {
			sp := heavy.Child("fail")
			if i%2 == 0 {
				sp.End(errLong)
				continue
			}
			for _, k := range []string{"a", "b", "c", "d", "e"} {
				sp.SetInt(k, j)
			}
			sp.End(nil)
		}
		heavy.End(nil) // the last span: the arena is pooled here, or dropped
		_, light := tracer.StartRoot(bg, "light")
		light.Hold()
		light.tr.mu.Lock()
		runs := len(light.tr.runs)
		light.tr.mu.Unlock()
		light.SetAttr("outcome", "ok")
		light.End(nil)
		store.Put(QueryTrace{ID: "light" + strconv.Itoa(i)}, light)
		light.tr.mu.Lock()
		text := cap(light.tr.text)
		light.tr.mu.Unlock()
		light.Release()
		if text > maxPooledText || runs > maxPooledRuns {
			t.Fatalf("a light trace drawn after a heavy one has %d overflow runs and is stored with %d bytes of text room", runs, text)
		}
	}
}

// TestTraceRecycling runs 64 goroutines of seeded schedules over traces
// that keep going back to the pool and coming out again: children,
// attributes past a slot's four and past a span's eight, ends, grafts,
// spans that end after every hold is gone (the stream pump, the hedge
// loser), traces kept by a small ring — trimmed there, grown again from the
// free lists while late spans still end, read back while others evict
// them. Every span is named after the trace it was
// started in, and whenever a trace is read — by its owner or out of the
// ring — every span in it must carry that trace's name: a write into a
// recycled arena would show up as a stranger. The race detector checks the
// rest.
func TestTraceRecycling(t *testing.T) {
	tracer := NewTracer("test")
	store := NewTraceStore(8)
	check := func(name string, recs []SpanRecord) {
		for _, r := range recs {
			if r.Name != name || r.Attrs["trace"] != name {
				t.Errorf("trace %s holds a span named %q with attrs %v", name, r.Name, r.Attrs)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var late sync.WaitGroup
			for n := 0; n < 60; n++ {
				name := fmt.Sprintf("g%d.%d", g, n)
				_, root := tracer.StartRoot(context.Background(), name)
				root.Hold()
				root.SetAttr("trace", name)
				spans := []*Span{root}
				for op, ops := 0, rng.Intn(40); op < ops; op++ {
					sp := spans[rng.Intn(len(spans))]
					switch rng.Intn(6) {
					case 0, 1:
						c := sp.Child(name)
						c.SetAttr("trace", name)
						spans = append(spans, c)
					case 2:
						sp.SetInt("n"+strconv.Itoa(rng.Intn(maxAttrs)), op)
					case 3:
						sp.End(nil)
						sp.End(errBoom)
					case 4:
						root.Adopt([]SpanRecord{{TraceID: root.TraceID(), SpanID: fmt.Sprintf("%016x", 1+op), Name: name,
							Attrs: map[string]string{"trace": name}, Status: "ok"}})
					case 5:
						// Outlives the request: ends after the last hold
						// is gone, keeping the arena alive until it does.
						c := sp.Child(name)
						late.Add(1)
						go func() {
							defer late.Done()
							c.SetAttr("trace", name)
							runtime.Gosched()
							c.Child(name).SetAttr("trace", name) // left in flight forever: this arena is never pooled
							c.End(nil)
						}()
					}
				}
				for _, sp := range spans[1:] {
					if rng.Intn(10) > 0 {
						sp.End(nil)
					}
				}
				root.End(nil)
				check(name, root.Records())
				if rng.Intn(3) == 0 {
					store.Put(QueryTrace{ID: name, Outcome: "ok"}, root)
					for j, more := 0, rng.Intn(2*blockSpans); j < more; j++ { // past the trim
						c := root.Child(name)
						c.SetAttr("trace", name)
						for k := rng.Intn(maxAttrs); k > 0; k-- {
							c.SetInt("w"+strconv.Itoa(k), j)
						}
						c.End(nil)
					}
					check(name, root.Records())
				}
				root.Release()
				if tr, ok := store.Get(fmt.Sprintf("g%d.%d", rng.Intn(64), n)); ok {
					check(tr.ID, tr.Spans)
				}
			}
			late.Wait()
		}(g)
	}
	wg.Wait()
}

// SpanID returns the span's own ID as 16 hex characters ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return hexID(s.id[:])
}
