package router

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llmms/internal/embedding"
	"llmms/internal/vectordb"
)

// routeCollection is an in-memory "route_clusters" collection and a count
// of the writes it has received.
func routeCollection(t testing.TB) (*vectordb.Collection, *atomic.Int64) {
	t.Helper()
	writes := new(atomic.Int64)
	db := vectordb.New()
	db.SetHooks(vectordb.Hooks{ObserveInsert: func(string, time.Duration) { writes.Add(1) }})
	col, err := db.CreateCollection("route_clusters", vectordb.CollectionConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	return col, writes
}

// index is what a flush persists of p: every cluster's record, by id.
func index(p *Predictor) map[int]clusterRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]clusterRecord, len(p.clusters))
	for _, c := range p.clusters {
		out[c.id] = c.record()
	}
	return out
}

// restore loads the fresh predictor p from col.
func restore(t *testing.T, p *Predictor, col *vectordb.Collection) *Predictor {
	t.Helper()
	p.SetPersistence(col, func(err error) { t.Errorf("persist: %v", err) })
	if _, err := p.Load(); err != nil {
		t.Fatal(err)
	}
	return p
}

var geoScores = map[string]float64{"llama3": 0.9, "mistral": 0.3, "qwen2": 0.5}

// TestPredictorWritesBehind: a query changes memory only; the cluster's
// changes reach the collection together, one write, a flush period later.
func TestPredictorWritesBehind(t *testing.T) {
	col, writes := routeCollection(t)
	p := NewPredictor(PredictorOptions{})
	p.SetPersistence(col, func(err error) { t.Errorf("persist: %v", err) })
	start := time.Now()
	train(p, geoQueries, geoScores)
	if n := writes.Load(); n != 0 {
		t.Fatalf("Observe wrote %d times on the query path", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for writes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no flush within 5 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if waited := time.Since(start); waited < routeFlushEvery {
		t.Fatalf("flushed after %v, before the %v window", waited, routeFlushEvery)
	}
	if n := writes.Load(); n != 1 {
		t.Fatalf("%d observations of one cluster took %d writes, want 1", len(geoQueries), n)
	}
	docs := col.All()
	if len(docs) != 1 || docs[0].ID != "c0" || len(docs[0].Embedding) != 1 {
		t.Fatalf("collection holds %+v, want one key-value slot c0", docs)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if n := writes.Load(); n != 1 {
		t.Fatalf("Close of a clean index wrote (%d writes)", n)
	}
}

// TestPredictorRestartKeepsProbeSchedule: the ε cadence is cluster state.
// A restart restores it, so probes resume where they were instead of
// replaying from the last Observe.
func TestPredictorRestartKeepsProbeSchedule(t *testing.T) {
	const cadence = 2 // a probe every 2nd routed decision
	col, _ := routeCollection(t)
	live := testPredictor(1, cadence)
	live.SetPersistence(col, func(err error) { t.Errorf("persist: %v", err) })
	twin := testPredictor(1, cadence)
	train(live, geoQueries, geoScores)
	train(twin, geoQueries, geoScores)
	for i := 0; i < 3; i++ { // mid-cycle: the next decision is a probe
		if pred := live.Predict(geoQueries[0], testPool); !pred.Routed {
			t.Fatalf("decision %d not routed: %+v", i, pred)
		}
		twin.Predict(geoQueries[0], testPool)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	restored := restore(t, testPredictor(1, cadence), col)
	// Decision counts are per process, like llmms_route_decisions_total;
	// everything else is the index.
	want, got := live.Status(), restored.Status()
	want.Decisions, got.Decisions = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored status\n got %+v\nwant %+v", got, want)
	}
	for i := 0; i < 2*cadence; i++ {
		got, want := restored.Predict(geoQueries[0], testPool), twin.Predict(geoQueries[0], testPool)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decision %d after restart = %+v, never-restarted twin %+v", i, got, want)
		}
	}
}

// TestPredictorCrashKeepsWholeFlushes: a crash can lose the flushes whose
// WAL record did not land whole, and nothing else. Killing the log at
// every byte offset restores the index as of the last whole flush before
// the cut — never part of one.
func TestPredictorCrashKeepsWholeFlushes(t *testing.T) {
	// A small encoder keeps the log a few KiB, so every offset is cheap.
	enc, err := embedding.New(embedding.Config{Name: "router-crash-test", Dim: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every distinct question is its own cluster, and one is routable after
	// two observations.
	fresh := func() *Predictor {
		p := newPredictor(1, enc)
		p.probeEvery, p.minSimilarity, p.minObservations = 2, 0.99, 2
		return p
	}
	dir := t.TempDir()
	db, err := vectordb.Open(dir, vectordb.OpenOptions{Sync: vectordb.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := db.CreateCollection("route_clusters", vectordb.CollectionConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	wals, _ := filepath.Glob(filepath.Join(dir, "wal_*.log"))
	if len(wals) != 1 {
		t.Fatalf("want one WAL in %s, found %v", dir, wals)
	}
	walSize := func() int64 {
		fi, err := os.Stat(wals[0])
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	p := fresh()
	p.SetPersistence(col, func(err error) { t.Errorf("persist: %v", err) })
	states := []map[int]clusterRecord{{}} // the index as of each whole flush
	var ends []int64                      // the WAL's length after each flush
	step := func(change func()) {
		// Holding flushMu keeps a timer flush from landing mid-batch: each
		// batch is exactly one WAL record, whichever flush writes it.
		p.flushMu.Lock()
		change()
		p.flushMu.Unlock()
		if err := p.flush(false); err != nil {
			t.Fatal(err)
		}
		states = append(states, index(p))
		ends = append(ends, walSize())
	}
	q := []string{"What is the capital of France?", "What is the chemical symbol for gold?", "Who painted the Mona Lisa?"}
	res := scoredResult("llama3", geoScores)
	step(func() { p.Observe(q[0], res); p.Observe(q[1], res) })
	if n := len(states[1]); n != 2 {
		t.Fatalf("first flush holds %d clusters, want 2 (one record, two documents)", n)
	}
	step(func() { p.Observe(q[0], res); p.Observe(q[2], res) })
	step(func() { p.Rate(q[1], "qwen2", 1); p.Predict(q[0], testPool) })
	step(func() { p.Observe(q[2], res); p.Predict(q[0], testPool); p.Predict(q[0], testPool) })
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	prev := int64(0)
	for i, end := range ends {
		if end <= prev || reflect.DeepEqual(states[i+1], states[i]) {
			t.Fatalf("flush %d wrote nothing new", i+1)
		}
		prev = end
	}

	files := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	wal := filepath.Base(wals[0])
	crashDir := t.TempDir()
	for cut := int64(0); cut <= ends[len(ends)-1]; cut++ {
		for name, data := range files {
			if name == wal {
				data = data[:cut]
			}
			if err := os.WriteFile(filepath.Join(crashDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		whole := 0
		for _, e := range ends {
			if e <= cut {
				whole++
			}
		}
		cdb, err := vectordb.Open(crashDir, vectordb.OpenOptions{Sync: vectordb.SyncNone})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		ccol, err := cdb.GetOrCreateCollection("route_clusters", vectordb.CollectionConfig{Shards: 1})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := index(restore(t, fresh(), ccol)); !reflect.DeepEqual(got, states[whole]) {
			t.Fatalf("cut %d of %d: restored %+v, want the index after flush %d: %+v",
				cut, ends[len(ends)-1], got, whole, states[whole])
		}
		if err := cdb.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPredictorConcurrentFlushAndClose runs every entry point against
// flushes and Close: nothing races, and once Close has returned the
// collection receives no further write, from a change or from a timer.
func TestPredictorConcurrentFlushAndClose(t *testing.T) {
	col, writes := routeCollection(t)
	p := testPredictor(1, 2)
	p.SetPersistence(col, func(err error) { t.Errorf("persist: %v", err) })
	train(p, geoQueries, geoScores)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ops atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ops.Add(1)
				q := geoQueries[i%len(geoQueries)]
				switch (g + i) % 4 {
				case 0:
					p.Observe(q, scoredResult("llama3", geoScores))
				case 1:
					p.Rate(q, "mistral", -1)
				case 2:
					p.Predict(q, testPool)
				case 3:
					p.Status()
				}
			}
		}(g)
	}
	// What the timer runs, as often as the mutations allow.
	for i := 0; i < 20; i++ {
		if err := p.flush(false); err != nil {
			t.Error(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	closed := writes.Load()
	for after := ops.Load() + 400; ops.Load() < after; { // changes keep landing after Close
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	p.mu.Lock()
	armed := p.timer != nil
	p.mu.Unlock()
	if armed {
		t.Fatal("a change after Close armed a flush")
	}
	if err := p.flush(false); err != nil { // a timer that fired late
		t.Fatal(err)
	}
	if n := writes.Load(); n != closed {
		t.Fatalf("the collection took %d writes after Close", n-closed)
	}
}

// TestPredictorLoadRejectsUnrunnableDocs pins the two documents that
// crashed a server after boot (GET /api/router on a null model entry,
// Observe on a short sum) and their kin: Load names the document and
// leaves the index as it was.
func TestPredictorLoadRejectsUnrunnableDocs(t *testing.T) {
	zeros := "[" + strings.TrimSuffix(strings.Repeat("0,", 256), ",") + "]"
	short := "[" + strings.TrimSuffix(strings.Repeat("0.1,", 255), ",") + "]"
	for name, doc := range map[string]vectordb.Document{
		"null stats":         {ID: "c0", Text: `{"stats":{"a":null}}`},
		"null stats, 256-d":  {ID: "c0", Text: `{"n":3,"sum":` + zeros + `,"stats":{"a":null}}`},
		"short sum":          {ID: "c0", Text: `{"n":3,"sum":` + short + `,"stats":{}}`},
		"negative probe_idx": {ID: "c0", Text: `{"n":3,"sum":` + zeros + `,"probe_idx":-1}`},
		"non-canonical id":   {ID: "c01", Text: `{"n":3,"sum":` + zeros + `}`},
		"bad json":           {ID: "c0", Text: `{"n":`},
	} {
		t.Run(name, func(t *testing.T) {
			col, _ := routeCollection(t)
			doc.Embedding = embedding.Vector{0}
			if err := col.Upsert(doc); err != nil {
				t.Fatal(err)
			}
			p := NewPredictor(PredictorOptions{})
			p.SetPersistence(col, nil)
			n, err := p.Load()
			if err == nil || !strings.Contains(err.Error(), doc.ID) {
				t.Fatalf("Load = %d, %v; want an error naming %q", n, err, doc.ID)
			}
			if st := p.Status(); st.Clusters != 0 {
				t.Fatalf("a failed Load left %d clusters", st.Clusters)
			}
		})
	}
}
