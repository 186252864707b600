package modeld_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"llmms/internal/llm"
	"llmms/internal/modeld"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
)

// TestTraceRoundTripOverWire proves the W3C traceparent propagation
// end to end: the client injects the header, the daemon parses it and
// joins the same trace, and the daemon-side spans ship back on the
// done line and graft into the client's span tree — one trace ID
// across both processes.
func TestTraceRoundTripOverWire(t *testing.T) {
	_, client := wireStack(t, truthfulqa.Seed())
	tracer := telemetry.NewTracer("llmms")
	ctx, root := tracer.StartRoot(context.Background(), "query")

	if _, err := client.GenerateChunk(ctx, llm.ChunkRequest{
		Model: llm.ModelLlama3, Prompt: "Are bats blind?", MaxTokens: 16,
	}); err != nil {
		t.Fatal(err)
	}
	root.End(nil)

	recs := root.Records()
	byName := map[string]telemetry.SpanRecord{}
	for _, r := range recs {
		if r.TraceID != root.TraceID() {
			t.Errorf("span %s/%s trace = %q, want %q", r.Service, r.Name, r.TraceID, root.TraceID())
		}
		byName[r.Name] = r
	}
	clientSpan, ok := byName["modeld.generate"]
	if !ok {
		t.Fatalf("no client-side modeld.generate span in %d records", len(recs))
	}
	daemonRoot, ok := byName["modeld.handle_generate"]
	if !ok {
		t.Fatalf("daemon spans not grafted into client trace: %v", names(recs))
	}
	if daemonRoot.Service != "modeld" {
		t.Errorf("daemon span service = %q, want modeld", daemonRoot.Service)
	}
	if daemonRoot.ParentID != clientSpan.SpanID {
		t.Errorf("daemon root parent = %q, want client span %q", daemonRoot.ParentID, clientSpan.SpanID)
	}
	engine, ok := byName["engine.generate"]
	if !ok {
		t.Fatalf("daemon engine.generate span missing: %v", names(recs))
	}
	if engine.ParentID != daemonRoot.SpanID {
		t.Errorf("engine span parent = %q, want daemon root %q", engine.ParentID, daemonRoot.SpanID)
	}
}

// TestMalformedTraceparentFreshRoot proves the daemon treats a
// malformed traceparent — garbage, or IDs in uppercase hex, which W3C
// Trace Context does not allow — as absent for joining purposes: it
// starts a fresh root trace rather than propagating garbage, but still
// returns its spans (the client's Adopt drops mismatched trace IDs, so a
// confused sender cannot pollute anyone's tree).
func TestMalformedTraceparentFreshRoot(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	srv := httptest.NewServer(modeld.NewServer(engine))
	defer srv.Close()

	const tid = "0123456789abcdef0123456789abcdef"
	const sid = "0123456789abcdef"
	for _, header := range []string{"not-a-traceparent", "00-" + strings.ToUpper(tid) + "-" + strings.ToUpper(sid) + "-01"} {
		spans := generateWithHeader(t, srv, header)
		if len(spans) == 0 {
			t.Fatalf("%s: daemon returned no spans despite a traceparent header", header)
		}
		fresh := spans[0].TraceID
		if len(fresh) != 32 || fresh == tid {
			t.Fatalf("%s: fresh root trace ID = %q, want 32 hex chars of a new trace", header, fresh)
		}
		for _, sp := range spans {
			if sp.TraceID != fresh {
				t.Errorf("%s: daemon spans disagree on trace ID: %q vs %q", header, sp.TraceID, fresh)
			}
			if sp.Name == "modeld.handle_generate" && sp.ParentID != "" {
				t.Errorf("%s: fresh root has parent %q, want none", header, sp.ParentID)
			}
		}
	}

	// Sanity check the inverse: a well-formed header joins its trace.
	joined := generateWithHeader(t, srv, "00-"+tid+"-"+sid+"-01")
	for _, sp := range joined {
		if sp.TraceID != tid {
			t.Errorf("span %q trace = %q, want upstream %q", sp.Name, sp.TraceID, tid)
		}
		if sp.Name == "modeld.handle_generate" && sp.ParentID != sid {
			t.Errorf("daemon root parent = %q, want upstream %q", sp.ParentID, sid)
		}
	}
}

// generateWithHeader posts a raw /api/generate request with the given
// Traceparent header and returns the spans from the final done line.
func generateWithHeader(t *testing.T, srv *httptest.Server, traceparent string) []telemetry.SpanRecord {
	t.Helper()
	var reqBody modeld.GenerateRequest
	reqBody.Model = llm.ModelLlama3
	reqBody.Prompt = "Are bats blind?"
	reqBody.Options.NumPredict = 16
	data, err := json.Marshal(reqBody)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/api/generate", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", traceparent)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var spans []telemetry.SpanRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var gr modeld.GenerateResponse
		if err := json.Unmarshal(sc.Bytes(), &gr); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if gr.Done {
			spans = gr.Spans
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

func names(recs []telemetry.SpanRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Service + "/" + r.Name
	}
	return out
}
