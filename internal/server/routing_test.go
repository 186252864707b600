package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"llmms/internal/core"
	"llmms/internal/llm"
	"llmms/internal/truthfulqa"
)

// newRoutingServer builds a server over the seed knowledge base with the
// given routing/serving/persistence options.
func newRoutingServer(t *testing.T, mutate func(*Options)) *Server {
	t.Helper()
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	opts := Options{Engine: engine}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	watchResources(t, s)
	return s
}

// geoTraining are same-family queries that train one routing cluster.
var geoTraining = []string{
	"What is the capital of France?",
	"What is the capital of Japan?",
	"What is the capital of Brazil?",
	"What is the capital of Egypt?",
	"What is the capital of Canada?",
	"What is the capital of Kenya?",
}

// trainGeoCluster feeds the predictor synthetic completed orchestrations
// with cleanly separated per-model scores, so qwen2 is the family's
// confident best model.
func trainGeoCluster(t *testing.T, s *Server) {
	t.Helper()
	for _, q := range geoTraining {
		s.Router().Observe(q, core.Result{
			Model: llm.ModelQwen2,
			Outcomes: []core.ModelOutcome{
				{Model: llm.ModelLlama3, Response: "a", Tokens: 5, Score: 0.3},
				{Model: llm.ModelMistral, Response: "b", Tokens: 5, Score: 0.5},
				{Model: llm.ModelQwen2, Response: "c", Tokens: 5, Score: 0.9},
			},
		})
	}
}

// postQuery runs one /api/query request directly against the handler and
// returns the recorder and the final core.Result from the SSE stream.
func postRouteQuery(t *testing.T, s *Server, body map[string]any) (*httptest.ResponseRecorder, core.Result) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/api/query", bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("query status = %d: %s", rec.Code, rec.Body.String())
	}
	var result core.Result
	found := false
	for _, f := range sseFrames(t, rec.Body.String()) {
		if f.Event != "result" {
			continue
		}
		var env struct {
			Result core.Result `json:"result"`
		}
		if err := json.Unmarshal([]byte(f.Data), &env); err != nil {
			t.Fatalf("parse result frame: %v", err)
		}
		result, found = env.Result, true
	}
	if !found {
		t.Fatalf("no result frame in stream:\n%s", rec.Body.String())
	}
	return rec, result
}

func TestQueryRouteIdentityAtFullK(t *testing.T) {
	// k = len(enabled models) makes routing a declared no-op: the result
	// must be byte-identical to an unrouted server's, for every strategy.
	plain := newRoutingServer(t, nil)
	routed := newRoutingServer(t, func(o *Options) {
		o.Routing = RoutingOptions{TopK: len(DefaultSettings().EnabledModels)}
	})
	for _, strat := range []string{"oua", "mab", "hybrid"} {
		body := map[string]any{"query": "What is the capital of France?", "strategy": strat}
		_, want := postRouteQuery(t, plain, body)
		rec, got := postRouteQuery(t, routed, body)
		if h := rec.Header().Get("X-Route"); h != "full:3" {
			t.Fatalf("%s: X-Route = %q, want full:3", strat, h)
		}
		// Elapsed is wall clock, the only legitimately varying field.
		want.Elapsed, got.Elapsed = 0, 0
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("%s: routed result diverged from unrouted:\n got %s\nwant %s", strat, gotJSON, wantJSON)
		}
	}
}

func TestQueryRouteFallbackColdRunsFullPool(t *testing.T) {
	s := newRoutingServer(t, func(o *Options) {
		o.Routing = RoutingOptions{TopK: 1}
	})
	rec, res := postRouteQuery(t, s, map[string]any{"query": "What is the capital of France?", "strategy": "mab"})
	if h := rec.Header().Get("X-Route"); h != "fallback_cold:3" {
		t.Fatalf("X-Route = %q, want fallback_cold:3 (empty index must route the full pool)", h)
	}
	if len(res.Outcomes) != 3 {
		t.Fatalf("fallback query fanned out to %d models, want 3", len(res.Outcomes))
	}
}

func TestQueryRouteNarrowsAfterTraining(t *testing.T) {
	s := newRoutingServer(t, func(o *Options) {
		o.Routing = RoutingOptions{TopK: 1, Epsilon: -1}
	})
	trainGeoCluster(t, s)
	// An unseen query of the trained family routes to the cluster's best.
	rec, res := postRouteQuery(t, s, map[string]any{"query": "What is the capital of Norway?", "strategy": "mab"})
	if h := rec.Header().Get("X-Route"); h != "topk:1" {
		t.Fatalf("X-Route = %q, want topk:1", h)
	}
	if res.Model != llm.ModelQwen2 || len(res.Outcomes) != 1 {
		t.Fatalf("routed to %q over %d models, want qwen2 over 1", res.Model, len(res.Outcomes))
	}
	// The status endpoint reports the decision and the cluster standings.
	srec := httptest.NewRecorder()
	s.ServeHTTP(srec, httptest.NewRequest("GET", "/api/router", nil))
	var status struct {
		Clusters  int               `json:"clusters"`
		Decisions map[string]uint64 `json:"decisions"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &status); err != nil {
		t.Fatalf("parse /api/router: %v", err)
	}
	if status.Clusters != 1 || status.Decisions["topk"] != 1 {
		t.Fatalf("router status = %+v, want 1 cluster and 1 topk decision", status)
	}
}

func TestQueryRouteGateAcquiresNarrowedWidth(t *testing.T) {
	// The perf win only exists if admission charges the narrowed width:
	// the gate.wait span must record weight 1, not the configured 3.
	s := newRoutingServer(t, func(o *Options) {
		o.Routing = RoutingOptions{TopK: 1, Epsilon: -1}
		o.Serving = ServingOptions{MaxInflight: 4}
	})
	trainGeoCluster(t, s)
	rec, _ := postRouteQuery(t, s, map[string]any{"query": "What is the capital of Norway?", "strategy": "mab"})
	if h := rec.Header().Get("X-Route"); h != "topk:1" {
		t.Fatalf("X-Route = %q, want topk:1", h)
	}
	queryID := rec.Header().Get("X-Query-ID")
	tr, ok := s.tel.Traces.Get(queryID)
	if !ok {
		t.Fatalf("trace for query %q not stored", queryID)
	}
	weight := ""
	for _, span := range tr.Spans {
		if span.Name == "gate.wait" {
			weight = span.Attrs["weight"]
		}
	}
	if weight != "1" {
		t.Fatalf("gate.wait weight = %q, want 1 (the narrowed width)", weight)
	}
}

func TestRouteAndFeedbackPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	durable := func(o *Options) {
		o.Routing = RoutingOptions{TopK: 1, Epsilon: -1}
		o.DataDir = dir
	}
	s1 := newRoutingServer(t, durable)
	trainGeoCluster(t, s1)
	// Feedback flows through the HTTP handler so the durable snapshot
	// path is the one exercised.
	req := httptest.NewRequest("POST", "/api/feedback",
		bytes.NewReader([]byte(fmt.Sprintf(`{"model":%q,"rating":1}`, llm.ModelQwen2))))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s1.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("feedback status = %d: %s", rec.Code, rec.Body.String())
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newRoutingServer(t, durable)
	defer s2.Close()
	if n := s2.Router().Status().Clusters; n != 1 {
		t.Fatalf("restored %d clusters, want 1", n)
	}
	pred := s2.Router().Predict("What is the capital of Norway?", DefaultSettings().EnabledModels)
	if pred.Outcome != "topk" || len(pred.Models) != 1 || pred.Models[0] != llm.ModelQwen2 {
		t.Fatalf("restored prediction = %+v, want topk [qwen2]", pred)
	}
	ratings := s2.feedback.Ratings()
	if r, ok := ratings[llm.ModelQwen2]; !ok || r[0] != 1 {
		t.Fatalf("restored feedback ratings = %v, want 1 rating for qwen2", ratings)
	}
}
