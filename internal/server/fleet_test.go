package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"llmms/internal/fleet"
	"llmms/internal/llm"
	"llmms/internal/truthfulqa"
)

// newFleetServer builds a server whose generation backend is a
// two-replica-per-model fleet over one engine, with a controllable
// probe: fail(model) makes that model's replicas flunk every probe.
func newFleetServer(t *testing.T) (*Server, *httptest.Server, *fleet.Pool, func(model string, down bool)) {
	t.Helper()
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	var downModel atomic.Value
	downModel.Store("")
	replicas := make(map[string][]fleet.Replica)
	for _, p := range engine.Profiles() {
		replicas[p.Name] = []fleet.Replica{
			{ID: "r0", Backend: engine}, {ID: "r1", Backend: engine},
		}
	}
	pool, err := fleet.New(fleet.Config{
		Replicas: replicas,
		Probe: func(ctx context.Context, model string, r fleet.Replica) error {
			if downModel.Load().(string) == model {
				return errors.New("probe refused")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	s, err := NewServer(Options{Engine: engine, Fleet: pool})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, pool, func(model string, down bool) {
		if down {
			downModel.Store(model)
		} else {
			downModel.Store("")
		}
	}
}

// TestQueryThroughFleet runs a full orchestration query with the fleet
// pool as the backend — the drop-in contract the redesign promises.
func TestQueryThroughFleet(t *testing.T) {
	_, ts, _, _ := newFleetServer(t)
	payload, _ := json.Marshal(QueryRequest{
		Query: truthfulqa.Seed()[0].Question, Strategy: "oua", MaxTokens: 256,
	})
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d\n%s", resp.StatusCode, buf.String())
	}
	gotResult := false
	for _, f := range sseFrames(t, buf.String()) {
		if f.Event == "error" {
			t.Fatalf("query errored through the fleet: %s", f.Data)
		}
		if f.Event == "result" {
			gotResult = true
		}
	}
	if !gotResult {
		t.Fatalf("no result frame:\n%s", buf.String())
	}
}

// TestFleetStatusEndpoint: /api/fleet exposes per-replica state, and is
// absent entirely without a configured fleet.
func TestFleetStatusEndpoint(t *testing.T) {
	_, ts, pool, _ := newFleetServer(t)
	var out []fleet.ModelStatus
	resp := doJSON(t, http.MethodGet, ts.URL+"/api/fleet", nil, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out) != len(pool.Models()) {
		t.Fatalf("models reported = %d, want %d", len(out), len(pool.Models()))
	}
	for _, ms := range out {
		if !ms.Ready || len(ms.Replicas) != 2 {
			t.Fatalf("fresh fleet not fully ready: %+v", ms)
		}
		for _, rs := range ms.Replicas {
			if rs.State != "serving" {
				t.Fatalf("fresh replica state = %+v", rs)
			}
		}
	}

	_, plain := newTestServer(t)
	if resp, err := http.Get(plain.URL + "/api/fleet"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fleet endpoint without a fleet = %d, want 404", resp.StatusCode)
	}
}

// TestReadyzPerModelFleetChecks: ejecting every replica of one model
// flips /readyz to 503 with exactly that model's check failing; probe
// recovery flips it back.
func TestReadyzPerModelFleetChecks(t *testing.T) {
	_, ts, pool, setDown := newFleetServer(t)
	model := pool.Models()[0]

	report := struct {
		Status string `json:"status"`
		Checks []struct {
			Name  string `json:"name"`
			OK    bool   `json:"ok"`
			Error string `json:"error"`
		} `json:"checks"`
	}{}
	resp := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &report)
	if resp.StatusCode != http.StatusOK || report.Status != "ready" {
		t.Fatalf("fresh fleet unready: %d %+v", resp.StatusCode, report)
	}
	found := 0
	for _, c := range report.Checks {
		if c.Name == "fleet:"+model {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("per-model fleet check missing from /readyz: %+v", report.Checks)
	}

	setDown(model, true)
	// The pool ejects a replica on its second failed probe in a row.
	pool.ProbeNow(context.Background())
	pool.ProbeNow(context.Background())
	report.Checks = nil
	resp = doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &report)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ejected model left readyz at %d", resp.StatusCode)
	}
	for _, c := range report.Checks {
		switch {
		case c.Name == "fleet:"+model:
			if c.OK || c.Error == "" {
				t.Fatalf("dead model's check = %+v", c)
			}
		case !c.OK:
			t.Fatalf("unrelated check failed: %+v", c)
		}
	}

	setDown(model, false)
	pool.ProbeNow(context.Background())
	resp = doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered fleet still unready: %d", resp.StatusCode)
	}
}

// chunkOnlyReplica serves generation by chunk calls only: a replica that
// cannot stream.
type chunkOnlyReplica struct{ llm.Backend }

// TestQueriesReachTheFleetAsSessions pins the traffic the orchestrator
// sends a fleet: every strategy, single included, opens one session per
// candidate (a fleet.stream_open span each) and makes no chunk call (no
// fleet.call span); a replica set that cannot stream is still reached,
// through chunk calls.
func TestQueriesReachTheFleetAsSessions(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	t.Cleanup(func() { engine.Close() })
	serve := func(t *testing.T, replica llm.Backend) *Server {
		replicas := make(map[string][]fleet.Replica)
		for _, p := range engine.Profiles() {
			replicas[p.Name] = []fleet.Replica{{ID: "r0", Backend: replica}, {ID: "r1", Backend: replica}}
		}
		pool, err := fleet.New(fleet.Config{Replicas: replicas})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pool.Close)
		s, err := NewServer(Options{Engine: engine, Fleet: pool})
		if err != nil {
			t.Fatal(err)
		}
		watchResources(t, s)
		return s
	}
	spans := func(t *testing.T, s *Server, strategy string) map[string]int {
		t.Helper()
		body := fmt.Sprintf(`{"query":%q,"strategy":%q}`, truthfulqa.Seed()[1].Question, strategy)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/query", strings.NewReader(body)))
		tr, ok := s.tel.Traces.Get(rec.Header().Get("X-Query-ID"))
		if rec.Code != http.StatusOK || !ok || tr.Outcome != "ok" {
			t.Fatalf("%s: status %d, trace stored %v with outcome %q", strategy, rec.Code, ok, tr.Outcome)
		}
		n := map[string]int{}
		for _, sp := range tr.Spans {
			n[sp.Name]++
		}
		return n
	}

	s := serve(t, engine)
	for _, strategy := range []string{"oua", "mab", "hybrid", "single"} {
		want := len(DefaultSettings().EnabledModels)
		if strategy == "single" {
			want = 1
		}
		if n := spans(t, s, strategy); n["fleet.call"] != 0 || n["fleet.stream_open"] != want {
			t.Fatalf("%s: %d fleet.call and %d fleet.stream_open spans, want 0 and %d", strategy,
				n["fleet.call"], n["fleet.stream_open"], want)
		}
	}
	if n := spans(t, serve(t, chunkOnlyReplica{engine}), "oua"); n["fleet.call"] == 0 {
		t.Fatalf("chunk-only replicas answered with no fleet.call span: %v", n)
	}
}
