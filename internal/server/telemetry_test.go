package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"llmms/internal/core"
	"llmms/internal/llm"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
)

// runQuery posts one /api/query and returns the response plus the SSE
// body, fully read.
func runQuery(t *testing.T, url string, body any) (*http.Response, string) {
	t.Helper()
	resp := doJSON(t, http.MethodPost, url+"/api/query", body, nil)
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// metricsLine matches one sample line of the 0.0.4 text format.
var metricsLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// TestMetricsEndpoint runs real queries (one success, one failure) and
// asserts GET /metrics is Prometheus-parseable and carries every family
// the platform promises, with the expected counts.
func TestMetricsEndpoint(t *testing.T) {
	// qwen2's daemon is down: the oua query answers without it, and a
	// single query on it fails once its stream is open.
	fb := core.NewFaultBackend(llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())}))
	fb.EnableStreams()
	fb.FailAlways(llm.ModelQwen2, errors.New("daemon down"))
	_, ts := newServingServer(t, ServingOptions{}, fb)

	if _, body := runQuery(t, ts.URL, map[string]any{"query": "What color is the sky?", "strategy": "oua"}); !strings.Contains(body, "event: result") {
		t.Fatalf("oua query did not complete:\n%s", body)
	}
	if _, body := runQuery(t, ts.URL, map[string]any{"query": "What color is the sky?", "strategy": "single", "model": llm.ModelQwen2}); !strings.Contains(body, "event: error") {
		t.Fatalf("doomed query did not error:\n%s", body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)

	// Every line parses as a comment or a sample.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !metricsLine.MatchString(line) {
			t.Errorf("unparseable metrics line %q", line)
		}
	}

	// The acceptance set: query counts by strategy/outcome, latency
	// histograms, retry/failure/prune counters, SSE counters, and the
	// modeld client families (present even with zero series — the server
	// runs on the in-process engine here).
	for _, want := range []string{
		`llmms_queries_total{strategy="oua",outcome="ok"} 1`,
		`llmms_queries_total{strategy="single",outcome="error"} 1`,
		`llmms_query_duration_seconds_count{strategy="oua"} 1`,
		`llmms_chunk_duration_seconds_bucket{model="llama3:8b"`,
		`llmms_tokens_generated_total{model="llama3:8b"}`,
		`llmms_http_requests_total{route="POST /api/query",code="200"} 2`,
		`llmms_http_request_duration_seconds_count{route="POST /api/query"} 2`,
		`llmms_sse_streams_started_total 2`,
		`llmms_sse_streams_dropped_total 0`,
		`llmms_sse_frames_written_total`,
		`llmms_query_traces 2`,
		"# TYPE llmms_chunk_retries_total counter",
		"# TYPE llmms_model_failures_total counter",
		"# TYPE llmms_prunes_total counter",
		"# TYPE modeld_client_requests_total counter",
		"# TYPE modeld_client_request_duration_seconds histogram",
		"# TYPE modeld_client_chunk_duration_seconds histogram",
		"# TYPE modeld_client_truncated_streams_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestQueryTraceRetrievable completes a query and fetches its trace by
// the ID from the X-Query-ID header, checking per-round and per-chunk
// timings arrived.
func TestQueryTraceRetrievable(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := runQuery(t, ts.URL, map[string]any{"query": "What color is the sky?", "strategy": "oua"})
	id := resp.Header.Get("X-Query-ID")
	if id == "" {
		t.Fatal("no X-Query-ID header")
	}
	if !strings.Contains(body, `"query_id":"`+id+`"`) {
		t.Errorf("result frame does not echo the query ID:\n%s", body)
	}

	var tr telemetry.QueryTrace
	if resp := doJSON(t, http.MethodGet, ts.URL+"/api/traces/"+id, nil, &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d", resp.StatusCode)
	}
	if tr.ID != id || tr.Strategy != "oua" || tr.Outcome != "ok" {
		t.Fatalf("trace header wrong: %+v", tr)
	}
	if tr.Winner == "" || tr.Elapsed <= 0 {
		t.Errorf("trace missing winner/elapsed: winner=%q elapsed=%v", tr.Winner, tr.Elapsed)
	}
	// Rounds and generation calls are spans, and what the orchestrator
	// decided about them their attributes.
	byID := map[string]telemetry.SpanRecord{}
	for _, sp := range tr.Spans {
		byID[sp.SpanID] = sp
	}
	rounds, chunks, scores, winners := 0, 0, 0, 0
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "round":
			rounds++
			if sp.Duration <= 0 || sp.Attrs["round"] == "" || byID[sp.ParentID].Name != "orchestrate" {
				t.Errorf("round span has no wall clock, number or place: %+v", sp)
			}
			if sp.Attrs["winner"] != "" {
				winners++
				if sp.Attrs["winner"] != tr.Winner || sp.Attrs["winner_reason"] == "" {
					t.Errorf("winner attrs %v, header says %q", sp.Attrs, tr.Winner)
				}
			}
		case "chunk":
			chunks++
			if sp.Attrs["model"] == "" || sp.Attrs["tokens"] == "" || sp.Attrs["tokens"] == "0" ||
				sp.Attrs["round"] != byID[sp.ParentID].Attrs["round"] || byID[sp.ParentID].Name != "round" {
				t.Errorf("malformed chunk span: %+v under %+v", sp, byID[sp.ParentID])
			}
			if sp.Attrs["score"] != "" {
				scores++
			}
		}
	}
	if rounds == 0 || rounds != tr.Rounds || chunks == 0 || scores == 0 || winners != 1 {
		t.Fatalf("trace missing spans: rounds=%d (header %d) chunks=%d scored=%d winners=%d",
			rounds, tr.Rounds, chunks, scores, winners)
	}
	if tr.SpanCount == 0 || tr.SpanCount > len(tr.Spans) || tr.DroppedSpans != 0 {
		t.Errorf("span_count %d, dropped_spans %d, %d spans", tr.SpanCount, tr.DroppedSpans, len(tr.Spans))
	}

	// The listing shows it, newest first.
	var list []telemetry.QueryTrace
	doJSON(t, http.MethodGet, ts.URL+"/api/traces", nil, &list)
	if len(list) != 1 || list[0].ID != id {
		t.Fatalf("trace listing = %+v", list)
	}

	// Unknown IDs get the uniform envelope with the documented code.
	var envelope map[string]struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/api/traces/qdeadbeef", nil, &envelope); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: %d", resp.StatusCode)
	}
	if envelope["error"].Code != "unknown_trace" {
		t.Errorf("error code = %q, want unknown_trace", envelope["error"].Code)
	}
}

// TestReadyz exercises both readiness outcomes: the default server is
// ready; a failing custom dependency flips it to 503 with the failing
// check named in the body.
func TestReadyz(t *testing.T) {
	_, ts := newTestServer(t)
	var report struct {
		Status string `json:"status"`
		Checks []struct {
			Name  string `json:"name"`
			OK    bool   `json:"ok"`
			Error string `json:"error,omitempty"`
		} `json:"checks"`
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &report); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}
	if report.Status != "ready" || len(report.Checks) != 1 || report.Checks[0].Name != "models" || !report.Checks[0].OK {
		t.Fatalf("ready report = %+v", report)
	}

	engine := llm.NewEngine(llm.Options{})
	s, err := NewServer(Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	s.readyChecks = append(s.readyChecks, readyCheck{
		name: "daemon", check: func(context.Context) error { return errors.New("connection refused") },
	})
	ts2 := httptest.NewServer(s)
	t.Cleanup(ts2.Close)
	report.Checks = nil
	if resp := doJSON(t, http.MethodGet, ts2.URL+"/readyz", nil, &report); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unready readyz: %d", resp.StatusCode)
	}
	if report.Status != "unready" || len(report.Checks) != 2 {
		t.Fatalf("unready report = %+v", report)
	}
	for _, c := range report.Checks {
		switch c.Name {
		case "models":
			if !c.OK {
				t.Errorf("models check should pass: %+v", c)
			}
		case "daemon":
			if c.OK || c.Error != "connection refused" {
				t.Errorf("daemon check should fail with its error: %+v", c)
			}
		default:
			t.Errorf("unexpected check %+v", c)
		}
	}

	// Liveness stays independent: /healthz is 200 on the unready server.
	if resp := doJSON(t, http.MethodGet, ts2.URL+"/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz on unready server: %d", resp.StatusCode)
	}
}

// TestTraceStoreEvictionOverHTTP proves the /api/traces bound end to
// end: with capacity 2, a third query evicts the first.
func TestTraceStoreEvictionOverHTTP(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	s, err := NewServer(Options{
		Engine:    engine,
		Telemetry: telemetry.New(telemetry.Options{TraceCapacity: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var ids []string
	for i := 0; i < 3; i++ {
		resp, body := runQuery(t, ts.URL, map[string]any{"query": "What color is the sky?", "strategy": "single"})
		if !strings.Contains(body, "event: result") {
			t.Fatalf("query %d failed:\n%s", i, body)
		}
		ids = append(ids, resp.Header.Get("X-Query-ID"))
	}
	var list []telemetry.QueryTrace
	doJSON(t, http.MethodGet, ts.URL+"/api/traces", nil, &list)
	if len(list) != 2 {
		t.Fatalf("listing kept %d traces, want 2", len(list))
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/api/traces/"+ids[0], nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest trace should be evicted, got %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/api/traces/"+ids[2], nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("newest trace should be retained, got %d", resp.StatusCode)
	}
}

// TestPprofGating: /debug/pprof is absent by default and served when
// Options.EnablePprof is set.
func TestPprofGating(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without opt-in: %d", resp.StatusCode)
	}

	engine := llm.NewEngine(llm.Options{})
	s, err := NewServer(Options{Engine: engine, EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s)
	t.Cleanup(ts2.Close)
	resp2, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof index with opt-in: %d", resp2.StatusCode)
	}
}

// TestHTTPStatusLabels checks the middleware records non-200 statuses
// under the registration pattern, not the concrete URL.
func TestHTTPStatusLabels(t *testing.T) {
	s, ts := newTestServer(t)
	doJSON(t, http.MethodGet, ts.URL+"/api/sessions/nope-1", nil, nil)
	doJSON(t, http.MethodGet, ts.URL+"/api/sessions/nope-2", nil, nil)
	tel := s.Telemetry()
	if got := tel.HTTPRequests.Value("GET /api/sessions/{id}", "404"); got != 2 {
		t.Errorf("pattern-labeled 404 count = %v, want 2", got)
	}
}

// lockedBuffer is a log sink the handler goroutine writes and the test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *lockedBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *lockedBuffer) lines() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Split(strings.TrimSpace(w.b.String()), "\n")
}

// TestDegradedQueryLogsWarn: a query that loses a model on its way to an
// answer says so once, in its per-query line, with the IDs that link the
// line to its trace and the model it lost.
func TestDegradedQueryLogsWarn(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	backend := core.NewFaultBackend(engine)
	backend.FailAlways(llm.ModelQwen2, errors.New("daemon down"))
	var logs lockedBuffer
	s, err := NewServer(Options{Engine: engine, Backend: backend,
		Logger: slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))})
	if err != nil {
		t.Fatal(err)
	}
	watchResources(t, s)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	resp, body := runQuery(t, ts.URL, map[string]any{"query": "What color is the sky?", "strategy": "oua"})
	if !strings.Contains(body, "event: result") {
		t.Fatalf("degraded query did not answer:\n%s", body)
	}
	var warns []map[string]any
	for _, line := range logs.lines() {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec["level"] == "WARN" {
			warns = append(warns, rec)
		}
	}
	if len(warns) != 1 {
		t.Fatalf("%d warn lines, want 1:\n%s", len(warns), strings.Join(logs.lines(), "\n"))
	}
	w := warns[0]
	if w["msg"] != "query degraded" || w["query_id"] != resp.Header.Get("X-Query-ID") ||
		w["trace_id"] != resp.Header.Get("X-Trace-ID") || w["failed"] != llm.ModelQwen2 ||
		!strings.Contains(fmt.Sprint(w["failed_reason"]), "daemon down") {
		t.Errorf("warn line %v", w)
	}
}
