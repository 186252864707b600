package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

func names(recs []telemetry.SpanRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Service + "/" + r.Name
	}
	return out
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/trace_*.golden from this run")

// TestTraceDocumentGolden pins the /api/traces/{id} document — the header
// fields, the span tree in the SpanRecord shape, and the attributes that
// carry what the rounds/chunks/scores/failures/pruned arrays used to — for
// one OUA and one MAB query on the deterministic in-process engine. IDs
// and clock readings are normalised; everything else is byte for byte.
func TestTraceDocumentGolden(t *testing.T) {
	for _, strategy := range []string{"oua", "mab"} {
		_, ts := newTestServer(t)
		resp, _ := runQuery(t, ts.URL, map[string]any{"query": truthfulqa.Seed()[0].Question, "strategy": strategy, "max_tokens": 96})
		var doc map[string]any
		if r := doJSON(t, http.MethodGet, ts.URL+"/api/traces/"+resp.Header.Get("X-Query-ID"), nil, &doc); r.StatusCode != http.StatusOK {
			t.Fatalf("%s: trace fetch status = %d", strategy, r.StatusCode)
		}
		if doc["id"] != resp.Header.Get("X-Query-ID") || doc["trace_id"] != resp.Header.Get("X-Trace-ID") {
			t.Fatalf("%s: document is of %v/%v, the response of %v/%v", strategy, doc["id"], doc["trace_id"],
				resp.Header.Get("X-Query-ID"), resp.Header.Get("X-Trace-ID"))
		}
		spanIDs := map[any]string{}
		spans, _ := doc["spans"].([]any)
		for i, sp := range spans {
			spanIDs[sp.(map[string]any)["span_id"]] = fmt.Sprintf("span-%d", i+1)
		}
		for _, sp := range spans {
			sp := sp.(map[string]any)
			if sp["trace_id"] != doc["trace_id"] || sp["duration_ns"].(float64) < 0 {
				t.Errorf("%s: span %v of trace %v lasting %v", strategy, sp["name"], sp["trace_id"], sp["duration_ns"])
			}
			sp["trace_id"], sp["span_id"], sp["start"], sp["duration_ns"] = "trace", spanIDs[sp["span_id"]], "start", "duration"
			if p, ok := sp["parent_id"]; ok {
				sp["parent_id"] = spanIDs[p]
			}
		}
		doc["id"], doc["trace_id"], doc["start"], doc["elapsed_ns"] = "query", "trace", "start", "elapsed"
		got, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", "trace_"+strategy+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: /api/traces/{id} document differs from %s (run with -update to accept):\n%s", strategy, path, got)
		}
	}
}

// TestDroppedSpansAtReadTime: a stored trace pushed over the span cap
// after its root ended — daemon records grafted by a stream pump that
// outlived the query — reports the exact count, as the document's
// dropped_spans and on the root's record, where the count used to be
// frozen into the root at its End and the late drops went uncounted.
func TestDroppedSpansAtReadTime(t *testing.T) {
	s, ts := newTestServer(t)
	_, root := s.tracer.StartRoot(context.Background(), "query")
	root.Hold()
	defer root.Release()
	pump := root.Child("modeld.stream")
	root.End(nil)
	s.tel.Traces.Put(telemetry.QueryTrace{ID: "qlate", TraceID: root.TraceID(), Outcome: "ok", SpanCount: 1}, root)
	recs := make([]telemetry.SpanRecord, 600)
	for i := range recs {
		recs[i] = telemetry.SpanRecord{TraceID: root.TraceID(), SpanID: fmt.Sprintf("%016x", i+1), Name: "engine.generate", Service: "modeld", Status: "ok"}
	}
	pump.Adopt(recs)
	pump.End(nil)
	var tr telemetry.QueryTrace
	if r := doJSON(t, http.MethodGet, ts.URL+"/api/traces/qlate", nil, &tr); r.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status = %d", r.StatusCode)
	}
	if tr.DroppedSpans != 90 || len(tr.Spans) != telemetry.MaxSpansPerTrace || tr.SpanCount != 1 {
		t.Fatalf("document: dropped_spans %d, %d spans, span_count %d; want 90, %d, 1",
			tr.DroppedSpans, len(tr.Spans), tr.SpanCount, telemetry.MaxSpansPerTrace)
	}
	if tr.Spans[0].Name != "query" || tr.Spans[0].Attrs["dropped_spans"] != "90" {
		t.Fatalf("root record %+v, want dropped_spans 90", tr.Spans[0])
	}
}
