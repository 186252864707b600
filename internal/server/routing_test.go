package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"llmms/internal/core"
	"llmms/internal/llm"
	"llmms/internal/router"
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
		o.Routing = RoutingOptions{TopK: 1}
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
		o.Routing = RoutingOptions{TopK: 1}
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

// feedbackReply is the POST /api/feedback body.
type feedbackReply struct {
	Model    string `json:"model"`
	Absorbed bool   `json:"absorbed"`
}

// postFeedback posts one rating straight to the handler.
func postFeedback(t *testing.T, s *Server, body string) (int, feedbackReply) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/feedback", strings.NewReader(body)))
	var out feedbackReply
	if rec.Code == 200 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("parse feedback reply: %v", err)
		}
	}
	return rec.Code, out
}

// modelStandings indexes one cluster's standings by model.
func modelStandings(cs router.ClusterStatus) map[string]router.ClusterModelStatus {
	out := make(map[string]router.ClusterModelStatus, len(cs.Models))
	for _, m := range cs.Models {
		out[m.Model] = m
	}
	return out
}

// TestRouteAndFeedbackPersistAcrossRestart: the routing index is the one
// model-quality ledger. A session's rating moves the rated model's stats
// on the cluster of the session's question by exactly one Rate step, and
// is written behind like every other change to the index: nothing reaches
// the collection before the flush, and a restart after Close restores the
// index as Close left it. A model the engine does not serve is refused and
// leaves the ledger alone; a server without routing absorbs nothing.
func TestRouteAndFeedbackPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	durable := func(o *Options) {
		o.Routing = RoutingOptions{TopK: 1}
		o.DataDir = dir
	}
	s1 := newRoutingServer(t, durable)
	trainGeoCluster(t, s1)
	rec, res := postRouteQuery(t, s1, map[string]any{"query": "What is the capital of Norway?", "strategy": "mab"})
	if res.Model != llm.ModelQwen2 {
		t.Fatalf("routed query answered by %q, want qwen2", res.Model)
	}
	sessID := rec.Header().Get("X-Session-ID")
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh boot has nothing waiting to be flushed.
	s2 := newRoutingServer(t, durable)
	col, err := s2.db.Collection(routeClustersCollection)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, before := col.All(), s2.Router().Status()
	if len(before.Index) != 1 {
		t.Fatalf("restored %d clusters, want 1", len(before.Index))
	}

	ghost := fmt.Sprintf(`{"model":"ghost:1b","session_id":%q,"rating":1}`, sessID)
	if code, _ := postFeedback(t, s2, ghost); code != 422 {
		t.Fatalf("rating an unknown model: status %d, want 422", code)
	}
	if got := s2.Router().Status(); !reflect.DeepEqual(got, before) {
		t.Fatalf("a refused rating moved the ledger:\n got %+v\nwant %+v", got, before)
	}

	code, out := postFeedback(t, s2, fmt.Sprintf(`{"session_id":%q,"rating":1}`, sessID))
	if code != 200 || out != (feedbackReply{Model: llm.ModelQwen2, Absorbed: true}) {
		t.Fatalf("feedback = %d %+v, want 200 qwen2 absorbed", code, out)
	}
	const decay = 0.98 // the routing index's per-observation decay
	was, now := modelStandings(before.Index[0]), modelStandings(s2.Router().Status().Index[0])
	for m, st := range now {
		w := was[m]
		if m != llm.ModelQwen2 {
			if st != w {
				t.Fatalf("%s moved on a rating of qwen2: %+v → %+v", m, w, st)
			}
			continue
		}
		// A thumbs-up is reward 0.5 + 0.35·1 = 0.85, one decayed step.
		wantW := w.Observations*decay + 1
		wantMean := (w.Mean*w.Observations*decay + 0.85) / wantW
		if math.Abs(st.Observations-wantW) > 1e-12 || math.Abs(st.Mean-wantMean) > 1e-12 {
			t.Fatalf("qwen2 stats = (W %v, mean %v), want one Rate step (%v, %v)", st.Observations, st.Mean, wantW, wantMean)
		}
	}
	if len(now) != len(was) {
		t.Fatalf("rating changed the cluster's models: %v → %v", was, now)
	}
	if got := col.All(); !reflect.DeepEqual(got, onDisk) {
		t.Fatal("the rating was written before the flush")
	}
	if slices.Contains(s2.db.ListCollections(), "feedback") {
		t.Fatal("a feedback collection exists: ratings must have one home, the routing index")
	}

	rated := s2.Router().Status()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := newRoutingServer(t, durable)
	defer s3.Close()
	if got := s3.Router().Status(); !reflect.DeepEqual(got, rated) {
		t.Fatalf("restored ledger differs from the one Close wrote:\n got %+v\nwant %+v", got, rated)
	}

	plain := newRoutingServer(t, nil)
	rec, _ = postRouteQuery(t, plain, map[string]any{"query": "What is the capital of Norway?", "strategy": "single", "model": llm.ModelMistral})
	code, out = postFeedback(t, plain, fmt.Sprintf(`{"session_id":%q,"rating":1}`, rec.Header().Get("X-Session-ID")))
	if code != 200 || out != (feedbackReply{Model: llm.ModelMistral}) {
		t.Fatalf("feedback without routing = %d %+v, want 200 mistral not absorbed", code, out)
	}
}
