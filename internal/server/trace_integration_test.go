package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"llmms/internal/fleet"
	"llmms/internal/llm"
	"llmms/internal/modeld"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
)

// chunkOnlyBackend serves per-round calls and nothing else: it neither
// streams nor unwraps, so the orchestrator's sessions never open a stream.
type chunkOnlyBackend struct{ inner llm.Backend }

func (b chunkOnlyBackend) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	return b.inner.GenerateChunk(ctx, req)
}

// TestQuerySpanTreeAcrossStack is the PR's acceptance scenario: one
// /api/query against a fleet-backed server whose replicas call a real
// modeld daemon over HTTP must produce a single trace whose span tree
// covers the serving layer (cache lookup, gate wait), orchestration
// (rounds, chunks), the fleet (replica calls), and the daemon side —
// all sharing one trace ID, retrievable from /api/traces/{id}.
func TestQuerySpanTreeAcrossStack(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	daemon := httptest.NewServer(modeld.NewServer(engine))
	defer daemon.Close()
	client := modeld.New(daemon.URL, modeld.WithHTTPClient(daemon.Client()))

	replicas := make(map[string][]fleet.Replica)
	for _, p := range engine.Profiles() {
		replicas[p.Name] = []fleet.Replica{
			{ID: "r0", Backend: client}, {ID: "r1", Backend: client},
		}
	}
	pool, err := fleet.New(fleet.Config{Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	s, err := NewServer(Options{
		Engine: engine,
		Fleet:  pool,
		// A chunk-only view of the pool: per-round generation keeps the
		// daemon span graft synchronous — each round's done line (carrying
		// the daemon spans) is consumed before the round returns, so the
		// tree is complete when the trace is stored.
		Backend: chunkOnlyBackend{inner: pool},
		Serving: ServingOptions{CacheTTL: time.Minute, MaxInflight: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	payload, _ := json.Marshal(QueryRequest{
		Query: truthfulqa.Seed()[0].Question, Strategy: "oua", MaxTokens: 256,
	})
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d\n%s", resp.StatusCode, body.String())
	}
	queryID := resp.Header.Get("X-Query-ID")
	traceID := resp.Header.Get("X-Trace-ID")
	if queryID == "" || len(traceID) != 32 {
		t.Fatalf("headers missing: X-Query-ID=%q X-Trace-ID=%q", queryID, traceID)
	}

	var tr telemetry.QueryTrace
	tResp := doJSON(t, http.MethodGet, ts.URL+"/api/traces/"+queryID, nil, &tr)
	if tResp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status = %d", tResp.StatusCode)
	}
	if tr.TraceID != traceID {
		t.Fatalf("stored trace ID %q != X-Trace-ID %q", tr.TraceID, traceID)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace has no spans")
	}

	spansByName := map[string][]telemetry.SpanRecord{}
	for _, sp := range tr.Spans {
		if sp.TraceID != traceID {
			t.Errorf("span %s/%s trace = %q, want %q", sp.Service, sp.Name, sp.TraceID, traceID)
		}
		spansByName[sp.Name] = append(spansByName[sp.Name], sp)
	}
	for _, want := range []string{
		"query",                  // root
		"cache.lookup",           // serving layer
		"gate.wait",              // admission
		"orchestrate",            // orchestration umbrella
		"round",                  // per-round (observer-synthesized)
		"chunk",                  // per-candidate slice
		"fleet.call",             // replica pick
		"modeld.generate",        // client-side HTTP call
		"modeld.handle_generate", // daemon side, grafted over the wire
	} {
		if len(spansByName[want]) == 0 {
			t.Errorf("span tree missing %q; have %v", want, names(tr.Spans))
		}
	}
	for _, sp := range spansByName["fleet.call"] {
		if sp.Attrs["replica"] == "" {
			t.Errorf("fleet.call span missing replica attr: %+v", sp.Attrs)
		}
	}
	for _, sp := range spansByName["modeld.handle_generate"] {
		if sp.Service != "modeld" {
			t.Errorf("daemon span service = %q, want modeld", sp.Service)
		}
	}

	// A cache-hit replay of the same query must not disturb the stored
	// trace: it serves from the cache without orchestrating.
	resp2, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second query X-Cache = %q, want HIT", got)
	}
}

// TestTracingDisabled: with Options.DisableTracing the query path runs
// entirely on nil no-op spans — no X-Trace-ID header, no span tree in
// the stored trace, everything else unchanged.
func TestTracingDisabled(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	s, err := NewServer(Options{Engine: engine, DisableTracing: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	payload, _ := json.Marshal(QueryRequest{
		Query: truthfulqa.Seed()[0].Question, Strategy: "oua", MaxTokens: 128,
	})
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d\n%s", resp.StatusCode, body.String())
	}
	if got := resp.Header.Get("X-Trace-ID"); got != "" {
		t.Fatalf("X-Trace-ID = %q with tracing disabled", got)
	}
	queryID := resp.Header.Get("X-Query-ID")
	var tr telemetry.QueryTrace
	if r := doJSON(t, http.MethodGet, ts.URL+"/api/traces/"+queryID, nil, &tr); r.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status = %d", r.StatusCode)
	}
	if tr.TraceID != "" || len(tr.Spans) != 0 {
		t.Fatalf("disabled tracing still produced trace %q with %d spans", tr.TraceID, len(tr.Spans))
	}
}

func names(recs []telemetry.SpanRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Service + "/" + r.Name
	}
	return out
}
