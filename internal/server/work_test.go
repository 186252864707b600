package server

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"llmms/internal/fleet"
	"llmms/internal/llm"
	"llmms/internal/modeld"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
)

// acceptCounter is a listener that counts the connections it accepts: the
// dials a daemon's clients make.
type acceptCounter struct {
	net.Listener
	accepted atomic.Int64
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// workStack is the real stack in one process: the server over a fleet of
// two replicas per model, each a loopback modeld daemon over its own
// engine reached through modeld.New's default client.
type workStack struct {
	s       *Server
	tel     *telemetry.Telemetry
	daemons []*acceptCounter
}

func newWorkStack(t *testing.T, sv ServingOptions, scale float64) *workStack {
	t.Helper()
	kb := llm.NewKnowledge(truthfulqa.Seed())
	w := &workStack{tel: telemetry.New(telemetry.Options{})}
	replicas := make(map[string][]fleet.Replica)
	for d := 0; d < 2; d++ {
		engine := llm.NewEngine(llm.Options{Knowledge: kb, LatencyScale: scale})
		t.Cleanup(func() { engine.Close() })
		srv := httptest.NewUnstartedServer(modeld.NewServer(engine))
		ln := &acceptCounter{Listener: srv.Listener}
		srv.Listener = ln
		srv.Start()
		t.Cleanup(srv.Close)
		w.daemons = append(w.daemons, ln)
		client := modeld.New(srv.URL, modeld.WithTelemetry(w.tel))
		for _, p := range engine.Profiles() {
			replicas[p.Name] = append(replicas[p.Name], fleet.Replica{ID: fmt.Sprintf("d%d", d), Backend: client})
		}
	}
	pool, err := fleet.New(fleet.Config{Replicas: replicas, Telemetry: w.tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	inventory := llm.NewEngine(llm.Options{Knowledge: kb})
	t.Cleanup(func() { inventory.Close() })
	if w.s, err = NewServer(Options{Engine: inventory, Fleet: pool, Telemetry: w.tel, Serving: sv}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.s.Close() })
	return w
}

// query answers body through the server, which must answer it in full.
func (w *workStack) query(t *testing.T, body string) {
	rw := &discardWriter{header: make(http.Header)}
	w.s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/api/query", strings.NewReader(body)))
	if rw.code != http.StatusOK || !rw.result {
		t.Fatalf("status %d, no result frame", rw.code)
	}
}

// discardWriter is a streaming ResponseWriter that keeps no body, so a
// row counts what the server allocates and not a recorder's buffer. It
// notes the status and whether a write carried the result frame.
type discardWriter struct {
	header http.Header
	code   int
	result bool
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.result = w.result || bytes.Contains(p, []byte("event: result"))
	return len(p), nil
}

func (w *discardWriter) Flush() {}

// requests counts the modeld requests the clients made.
func (w *workStack) requests() float64 {
	n := 0.0
	for _, op := range []string{"generate", "generate_stream"} {
		for _, oc := range []string{"ok", "error", "canceled"} {
			n += w.tel.ClientRequests.Value(op, oc)
		}
	}
	return n
}

// dials counts the connections the daemons accepted.
func (w *workStack) dials() int64 {
	var n int64
	for _, d := range w.daemons {
		n += d.accepted.Load()
	}
	return n
}

// TestQueryWork is the per-query work table: each row drives one fixed,
// seeded query through the real stack in process — the server, the fleet,
// two loopback modeld daemons and their batch engines — and pins what it
// costs after a warm-up: the modeld requests, the connections dialled, and
// the bytes allocated at both ends of the hop with the collector off
// (skipped under -race, which allocates on its own account). A session the
// orchestrator prunes before its daemon has written the whole answer stops
// the daemon in band and keeps its connection, which the next query's
// sessions skip while the rest of its reply is still in flight, and dial.
// Run alone the unpaced rows dial nothing; under the gate's parallel load,
// about once in 50 queries. Every MISS row is allowed a tenth of a dial a
// query, the paced one too, which prunes mid-answer in nearly every query.
func TestQueryWork(t *testing.T) {
	q := truthfulqa.Seed()[1].Question
	oua := fmt.Sprintf(`{"query":%q,"strategy":"oua","max_tokens":128}`, q)
	for _, row := range []struct {
		name       string
		body       string
		serving    ServingOptions
		scale      float64 // the engines' LatencyScale
		warm, runs int
		requests   float64 // a query
		dials      float64 // at most, a query
		// bytes bounds the bytes a query allocates: 5 % over what the row
		// read when its bound was last set.
		bytes float64
	}{
		// Three sessions, each over the hop's own transport, which writes
		// the request and parses the reply's head in place, with the
		// drains' deadline held by the sessions, the query's run taken
		// from a pool and the daemons' plans building no throwaway
		// strings: 33.2 KB a query read (40.1 KB with a context per
		// waiting drain, a run allocated per query and plans keyed by
		// joined strings; 35.1 KB with runs not pooled, 37.2 KB with
		// those plans). (A recorder's body buffer added about 28 KB more.)
		{name: "MISS oua", body: oua, warm: 20, runs: 50,
			requests: 3, dials: 0.1, bytes: 34900},
		// The bandit and the hybrid over the same stack: 32.9 and 33.1 KB
		// a query read (40.0 and 40.1 KB as above; 34.7 and 35.6 KB with
		// runs not pooled, 36.6 and 37.0 KB with those plans).
		{name: "MISS mab", body: fmt.Sprintf(`{"query":%q,"strategy":"mab","max_tokens":128}`, q), warm: 20, runs: 50,
			requests: 3, dials: 0.1, bytes: 34500},
		{name: "MISS hybrid", body: fmt.Sprintf(`{"query":%q,"strategy":"hybrid","max_tokens":128}`, q), warm: 20, runs: 50,
			requests: 3, dials: 0.1, bytes: 34700},
		// The oua query at fanout_paced's pace, which prunes a model before
		// its done line in nearly every query: 33.0 KB a query read, with one
		// dial in 20 queries (38.3 KB and 2.05 dials a query when a pruned
		// session hung up its connection).
		{name: "MISS oua paced", body: oua, scale: 0.13, warm: 5, runs: 20,
			requests: 3, dials: 0.1, bytes: 34700},
		// The same query answered from the cache after its MISS in the
		// warm-up: 6.7 KB a query read, 8.2 KB decoded, headed and
		// appended as above.
		{name: "HIT oua", body: oua, warm: 20, runs: 50,
			serving: ServingOptions{CacheTTL: time.Hour}, requests: 0, dials: 0, bytes: 7050},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := newWorkStack(t, row.serving, row.scale)
			for i := 0; i < row.warm; i++ {
				w.query(t, row.body)
			}
			runs := float64(row.runs)
			requests, dials := w.requests(), w.dials()
			for i := 0; i < row.runs; i++ {
				w.query(t, row.body)
			}
			if got := (w.requests() - requests) / runs; got != row.requests {
				t.Errorf("%.2f modeld requests a query, want %v", got, row.requests)
			}
			got := float64(w.dials()-dials) / runs
			t.Logf("%.2f dials a query", got)
			if got > row.dials {
				t.Errorf("%.2f dials a query, want at most %v", got, row.dials)
			}
			if raceEnabled {
				return
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < row.runs; i++ {
				w.query(t, row.body)
			}
			runtime.ReadMemStats(&after)
			b := float64(after.TotalAlloc-before.TotalAlloc) / runs
			t.Logf("%.0f bytes a query", b)
			if b > row.bytes {
				t.Errorf("%.0f bytes a query, want at most %.0f", b, row.bytes)
			}
		})
	}
}
