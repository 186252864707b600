package modeld

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"llmms/internal/llm"
	"llmms/internal/telemetry"
)

// TestClientInstrumentation drives both of the client's operations
// against a live daemon and checks the request counters, latency
// histograms, and per-model chunk latency land in the shared telemetry
// bundle.
func TestClientInstrumentation(t *testing.T) {
	plain, engine := newTestDaemon(t)
	tel := telemetry.New(telemetry.Options{})
	c := New(plain.base, WithTelemetry(tel))
	ctx := context.Background()
	model := engine.Profiles()[0].Name

	if _, err := c.GenerateChunk(ctx, llm.ChunkRequest{Model: model, Prompt: "What color is the sky?", MaxTokens: 8}); err != nil {
		t.Fatal(err)
	}
	drainSession(t, c, llm.ChunkRequest{Model: model, Prompt: "What color is the sky?", MaxTokens: 8}, 0)
	// An error outcome: unknown model.
	if _, err := c.GenerateChunk(ctx, llm.ChunkRequest{Model: "no-such-model", Prompt: "q", MaxTokens: 8}); err == nil {
		t.Fatal("expected error for unknown model")
	}

	for _, check := range []struct {
		op, outcome string
		want        float64
	}{
		{"generate", "ok", 1},
		{"generate", "error", 1},
		{"generate_stream", "ok", 1},
	} {
		if got := tel.ClientRequests.Value(check.op, check.outcome); got != check.want {
			t.Errorf("requests{%s,%s} = %v, want %v", check.op, check.outcome, got, check.want)
		}
	}
	if got := tel.ClientLatency.Count("generate"); got != 2 {
		t.Errorf("latency count{generate} = %v, want 2", got)
	}
	if got := tel.ClientLatency.Count("generate_stream"); got != 1 {
		t.Errorf("latency count{generate_stream} = %v, want 1", got)
	}
	if got := tel.ClientChunkLat.Count(model, "ok"); got != 1 {
		t.Errorf("chunk latency count{%s,ok} = %v, want 1", model, got)
	}
	if got := tel.ClientTruncated.Value(model); got != 0 {
		t.Errorf("truncated{%s} = %v, want 0", model, got)
	}
}

// TestClientTruncatedStreamCounter checks a stream that dies before its
// done:true line increments the truncation counter for the model.
func TestClientTruncatedStreamCounter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"model":"m","response":"partial"}`+"\n")
	}))
	defer srv.Close()
	tel := telemetry.New(telemetry.Options{})
	c := New(srv.URL, WithHTTPClient(srv.Client()), WithTelemetry(tel))
	if _, err := c.GenerateChunk(context.Background(), llm.ChunkRequest{Model: "m", Prompt: "q", MaxTokens: 8}); err == nil {
		t.Fatal("expected truncation error")
	}
	if got := tel.ClientTruncated.Value("m"); got != 1 {
		t.Errorf("truncated{m} = %v, want 1", got)
	}
	// The underlying generate request itself completed at the HTTP
	// level, so it counts as ok — truncation is its own signal.
	if got := tel.ClientRequests.Value("generate", "error"); got != 0 {
		t.Errorf("requests{generate,error} = %v, want 0", got)
	}
	// Regression: the chunk latency observation must see the truncation
	// error and land under the error outcome — an earlier version
	// observed latency before the truncation check and filed dead-daemon
	// calls as healthy, dragging the ok histogram toward zero.
	if got := tel.ClientChunkLat.Count("m", "error"); got != 1 {
		t.Errorf("chunk latency count{m,error} = %v, want 1", got)
	}
	if got := tel.ClientChunkLat.Count("m", "ok"); got != 0 {
		t.Errorf("chunk latency count{m,ok} = %v, want 0", got)
	}
}

// TestClientCanceledOutcome checks deadline expiry maps to the bounded
// "canceled" outcome label, not "error".
func TestClientCanceledOutcome(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A request read to its end: only then does net/http watch the
		// connection, and end the context when the client hangs up.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer srv.Close()
	tel := telemetry.New(telemetry.Options{})
	c := New(srv.URL, WithHTTPClient(srv.Client()), WithTelemetry(tel))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.GenerateChunk(ctx, llm.ChunkRequest{Model: "m", Prompt: "q", MaxTokens: 8}); err == nil {
		t.Fatal("expected timeout")
	}
	if got := tel.ClientRequests.Value("generate", "canceled"); got != 1 {
		t.Errorf("requests{generate,canceled} = %v, want 1", got)
	}
}

// TestClientClosedStreamCountsCanceled checks a session its consumer
// closed before reading its lines, over a body that cannot tell what has
// arrived from what is still to come (only the hop's own can): the body
// is read no further, and the request counts as canceled, not as an error
// or a success.
func TestClientClosedStreamCountsCanceled(t *testing.T) {
	tel := telemetry.New(telemetry.Options{})
	c := New("http://127.0.0.1:1", WithTelemetry(tel))
	lines := string(echoLine("late", []int{7}, nil)) + `{"model":"m","created_at":"","response":"","done":true,"done_reason":"stop"}` + "\n"
	resp, _, cancel := scriptedReply(lines, io.EOF)
	st := c.streamReply(llm.ChunkRequest{Model: "m", MaxTokens: 8}, resp, requestBufPool.Get().(*requestBuf), nil, cancel)
	st.Close()
	for _, outcome := range []string{"ok", "error"} {
		if got := tel.ClientRequests.Value("generate_stream", outcome); got != 0 {
			t.Errorf("requests{generate_stream,%s} = %v, want 0", outcome, got)
		}
	}
	if got := tel.ClientRequests.Value("generate_stream", "canceled"); got != 1 {
		t.Errorf("requests{generate_stream,canceled} = %v, want 1", got)
	}
	if _, err := st.Next(context.Background(), 1); !errors.Is(err, llm.ErrStreamClosed) {
		t.Errorf("Next after Close = %v, want ErrStreamClosed", err)
	}
}

// TestDaemonMetricsEndpoint checks the daemon's own /metrics page
// counts requests by route pattern and generated tokens by model.
func TestDaemonMetricsEndpoint(t *testing.T) {
	c, engine := newTestDaemon(t)
	ctx := context.Background()
	model := engine.Profiles()[0].Name
	if _, err := c.GenerateChunk(ctx, llm.ChunkRequest{Model: model, Prompt: "What color is the sky?", MaxTokens: 8}); err != nil {
		t.Fatal(err)
	}
	if err := call(c, http.MethodGet, "/api/tags", nil, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		`modeld_requests_total{route="POST /api/generate",code="200"} 1`,
		`modeld_requests_total{route="GET /api/tags",code="200"} 1`,
		`modeld_request_duration_seconds_count{route="POST /api/generate"} 1`,
		`modeld_generate_tokens_total{model="` + model + `"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("daemon metrics missing %q in:\n%s", want, out)
		}
	}
}
