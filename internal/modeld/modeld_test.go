package modeld

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"llmms/internal/embedding"
	"llmms/internal/gpu"
	"llmms/internal/llm"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
)

func newTestDaemon(t *testing.T) (*Client, *llm.Engine) {
	t.Helper()
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Generate(100, 1))})
	srv := httptest.NewServer(NewServer(engine))
	t.Cleanup(srv.Close)
	return New(srv.URL, WithHTTPClient(srv.Client())), engine
}

// TestGenerateStreaming checks the stream by content, not by line count
// (how many tokens share a line depends on who is faster, the engine or
// the writer): token lines carry text and are not done, exactly one done
// line ends the stream, and the lines join to the engine's own answer.
func TestGenerateStreaming(t *testing.T) {
	c, engine := newTestDaemon(t)
	var text strings.Builder
	var final GenerateResponse
	err := generateLines(c, GenerateRequest{
		Model: llm.ModelLlama3, Prompt: "Are bats blind?",
	}, func(gr GenerateResponse) {
		if final.Done {
			t.Errorf("line after the done line: %+v", gr)
		}
		if !gr.Done && gr.Response == "" {
			t.Errorf("empty token line: %+v", gr)
		}
		text.WriteString(gr.Response)
		if gr.Done {
			final = gr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.DoneReason != "stop" || final.EvalCount == 0 || len(final.Context) != final.EvalCount {
		t.Fatalf("bad final line: %+v", final)
	}
	want, _, err := engine.GenerateAll(context.Background(), llm.GenRequest{Model: llm.ModelLlama3, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}
	if text.String() != want || !strings.Contains(strings.ToLower(want), "bat") {
		t.Fatalf("streamed %q, engine answers %q", text.String(), want)
	}
}

func TestGenerateNonStreaming(t *testing.T) {
	c, _ := newTestDaemon(t)
	stream := false
	req := GenerateRequest{Model: llm.ModelMistral, Prompt: "What is the capital of France?", Stream: &stream}
	var got []GenerateResponse
	err := generateLines(c, req, func(gr GenerateResponse) {
		got = append(got, gr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Done || got[0].Response == "" {
		t.Fatalf("non-streaming reply wrong: %+v", got)
	}
}

func TestGenerateChunkContinuation(t *testing.T) {
	c, _ := newTestDaemon(t)
	ctx := context.Background()
	first, err := c.GenerateChunk(ctx, llm.ChunkRequest{Model: llm.ModelQwen2, Prompt: "What is the capital of France?", MaxTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	if first.DoneReason != llm.DoneLength || first.EvalCount != 4 {
		t.Fatalf("first chunk: %+v", first)
	}
	full, err := c.GenerateChunk(ctx, llm.ChunkRequest{Model: llm.ModelQwen2, Prompt: "What is the capital of France?"})
	if err != nil {
		t.Fatal(err)
	}
	text := first.Text
	cont := first.Context
	for i := 0; i < 200 && len(text) < len(full.Text); i++ {
		next, err := c.GenerateChunk(ctx, llm.ChunkRequest{Model: llm.ModelQwen2, Prompt: "What is the capital of France?", MaxTokens: 6, Cont: cont})
		if err != nil {
			t.Fatal(err)
		}
		text += next.Text
		cont = next.Context
		if next.DoneReason == llm.DoneStop {
			break
		}
	}
	if text != full.Text {
		t.Fatalf("chunked text != full text:\n%q\n%q", text, full.Text)
	}
}

// TestGenerateHugeNumPredict: a num_predict past the answer's end, with a
// context, decodes the rest of the answer and ends in a done line. The
// engine once overflowed adding it to the context's length and panicked,
// and the client read EOF.
func TestGenerateHugeNumPredict(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Generate(100, 1))})
	srv := httptest.NewServer(NewServer(engine))
	defer srv.Close()
	body := `{"model":"mistral:7b","prompt":"Are bats blind?","context":[1,2,3],"options":{"num_predict":9223372036854775807}}`
	resp, err := srv.Client().Post(srv.URL+"/api/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the stream: %v (read %q)", err, raw)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if last := lines[len(lines)-1]; resp.StatusCode != http.StatusOK || !strings.Contains(last, `"done":true`) ||
		!strings.Contains(last, `"done_reason":"stop"`) {
		t.Fatalf("status %d, last line %q: want a done line that stopped", resp.StatusCode, last)
	}
	c := New(srv.URL, WithHTTPClient(srv.Client()))
	chunk, err := c.GenerateChunk(context.Background(), llm.ChunkRequest{Model: llm.ModelMistral, Prompt: "Are bats blind?",
		MaxTokens: math.MaxInt, Cont: []int{1, 2, 3}})
	if err != nil || chunk.DoneReason != llm.DoneStop {
		t.Fatalf("GenerateChunk with MaxInt after a context: %+v, %v", chunk, err)
	}
}

func TestGenerateUnknownModel(t *testing.T) {
	c, _ := newTestDaemon(t)
	err := generateLines(c, GenerateRequest{Model: "nope", Prompt: "hi"}, func(GenerateResponse) {})
	if err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("expected unknown-model error, got %v", err)
	}
}

// call sends in, as JSON, to c's daemon over net/http and decodes the JSON
// reply into out: the daemon's calls other than generation, which the
// client does not make.
func call(c *Client, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp.Status, resp.Body)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// embed POSTs inputs to /api/embed as an array.
func embed(c *Client, model string, inputs ...string) ([][]float32, error) {
	raw, err := json.Marshal(inputs)
	if err != nil {
		return nil, err
	}
	var resp EmbedResponse
	err = call(c, http.MethodPost, "/api/embed", EmbedRequest{Model: model, Input: raw}, &resp)
	return resp.Embeddings, err
}

func TestEmbed(t *testing.T) {
	c, _ := newTestDaemon(t)
	vs, err := embed(c, embedding.ModelDefault,
		"the capital of france", "an unrelated sentence about volcanoes")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("got %d embeddings, want 2", len(vs))
	}
	local := embedding.Default().Encode("the capital of france")
	if embedding.Cosine(vs[0], local) < 0.999 {
		t.Fatal("daemon embedding differs from local encoder")
	}
	if _, err := embed(c, "no-such-encoder", "x"); err == nil {
		t.Fatal("expected error for unknown encoder")
	}
}

func TestClientEmbedBatch(t *testing.T) {
	c, _ := newTestDaemon(t)
	vs, err := embed(c, embedding.ModelDefault, "first text", "second text")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || len(vs[0]) == 0 {
		t.Fatalf("embed batch = %d vectors", len(vs))
	}
	// A one-input call returns the batch's vector, bit for bit.
	one, err := embed(c, embedding.ModelDefault, "first text")
	if err != nil || len(one) != 1 || !reflect.DeepEqual(one[0], vs[0]) {
		t.Fatalf("one-input embed = %d vectors, %v; want the batch's first", len(one), err)
	}
}

func TestTagsShowVersion(t *testing.T) {
	c, engine := newTestDaemon(t)
	ctx := context.Background()

	var list TagsResponse
	if err := call(c, http.MethodGet, "/api/tags", nil, &list); err != nil {
		t.Fatal(err)
	}
	tags := list.Models
	if len(tags) != 3 {
		t.Fatalf("tags = %d models, want 3", len(tags))
	}
	names := map[string]bool{}
	for _, m := range tags {
		names[m.Name] = true
		if m.Details.Family == "" || m.Details.ParameterSize == "" {
			t.Fatalf("incomplete details: %+v", m)
		}
	}
	if !names[llm.ModelLlama3] || !names[llm.ModelMistral] || !names[llm.ModelQwen2] {
		t.Fatalf("missing default models: %v", names)
	}

	show := func(model string) (ShowResponse, error) {
		var resp ShowResponse
		err := call(c, http.MethodPost, "/api/show", ShowRequest{Model: model}, &resp)
		return resp, err
	}
	got, err := show(llm.ModelLlama3)
	if err != nil {
		t.Fatal(err)
	}
	if got.ContextWindow == 0 || got.Details.Family != "llama" || got.Loaded {
		t.Fatalf("show: %+v", got)
	}
	if _, err := show("nope"); err == nil {
		t.Fatal("expected error for unknown model")
	}
	// A model loads on its first generation.
	if _, err := engine.GenerateChunk(ctx, llm.ChunkRequest{Model: llm.ModelLlama3, Prompt: "hi", MaxTokens: 1}); err != nil {
		t.Fatal(err)
	}
	if got, err := show(llm.ModelLlama3); err != nil || !got.Loaded {
		t.Fatalf("show after a generation: %+v, %v", got, err)
	}

	var v map[string]string
	if err := call(c, http.MethodGet, "/api/version", nil, &v); err != nil || v["version"] != Version {
		t.Fatalf("version = %v %v", v, err)
	}
}

// TestRoutes pins the daemon's surface: the calls of the paper's Ollama
// contract, version, GPU telemetry and metrics, and nothing else of
// Ollama's API — /api/chat and /api/ps among what answers 404 — with
// pprof only when enabled.
func TestRoutes(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	t.Cleanup(func() { engine.Close() })
	for _, pprofOn := range []bool{false, true} {
		srv := httptest.NewServer(NewServer(engine, WithPprof(pprofOn)))
		status := func(method, path, body string) int {
			t.Helper()
			req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp.StatusCode
		}
		served := []struct{ method, path, body string }{
			{"POST", "/api/generate", `{"model":"mistral:7b","prompt":"Are bats blind?","stream":false,"options":{"num_predict":4}}`},
			{"POST", "/api/embed", `{"model":"` + embedding.ModelDefault + `","input":"bats"}`},
			{"GET", "/api/tags", ""},
			{"POST", "/api/show", `{"model":"mistral:7b"}`},
			{"GET", "/api/version", ""},
			{"GET", "/api/gpu", ""},
			{"GET", "/metrics", ""},
		}
		for _, r := range served {
			if got := status(r.method, r.path, r.body); got != http.StatusOK {
				t.Errorf("%s %s = %d, want 200", r.method, r.path, got)
			}
		}
		gone := []struct{ method, path string }{
			{"POST", "/api/chat"}, {"GET", "/api/ps"}, {"POST", "/api/pull"},
			{"POST", "/api/create"}, {"POST", "/api/copy"}, {"DELETE", "/api/delete"},
			{"POST", "/api/embeddings"}, {"POST", "/api/push"},
		}
		for _, r := range gone {
			if got := status(r.method, r.path, "{}"); got != http.StatusNotFound {
				t.Errorf("%s %s = %d, want 404", r.method, r.path, got)
			}
		}
		want := http.StatusNotFound
		if pprofOn {
			want = http.StatusOK
		}
		if got := status("GET", "/debug/pprof/", ""); got != want {
			t.Errorf("pprof %v: GET /debug/pprof/ = %d, want %d", pprofOn, got, want)
		}
		srv.Close()
	}
}

func TestEmbedSingleStringInput(t *testing.T) {
	// The wire protocol accepts a bare string for input, like Ollama.
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(nil)})
	srv := httptest.NewServer(NewServer(engine))
	defer srv.Close()

	body := strings.NewReader(`{"model":"` + embedding.ModelDefault + `","input":"hello"}`)
	resp, err := srv.Client().Post(srv.URL+"/api/embed", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestGPUEndpoint(t *testing.T) {
	c, engine := newTestDaemon(t)
	if _, err := engine.GenerateChunk(context.Background(), llm.ChunkRequest{Model: llm.ModelLlama3, Prompt: "hi", MaxTokens: 1}); err != nil {
		t.Fatal(err)
	}
	var out gpu.Snapshot
	if err := call(c, http.MethodGet, "/api/gpu", nil, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Devices) != 1 || out.Devices[0].MemoryUsed == 0 || !strings.Contains(out.Devices[0].Name, "Tesla") {
		t.Fatalf("gpu telemetry: %+v", out)
	}
	if p := out.Devices[0].Processes; len(p) != 1 || p[0].Owner != llm.ModelLlama3 {
		t.Fatalf("gpu processes: %+v", p)
	}
}

// TestGenerateChunkTruncatedStream simulates a daemon that dies
// mid-stream: NDJSON lines arrive but the done:true line never does. The
// client must return the partial text with consistent token accounting
// and an explicit ErrTruncatedStream, never a silently half-empty chunk.
func TestGenerateChunkTruncatedStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"model":"m","response":"partial "}`+"\n")
		io.WriteString(w, `{"model":"m","response":"answer"}`+"\n")
	}))
	defer srv.Close()
	c := New(srv.URL, WithHTTPClient(srv.Client()))
	cont := []int{7, 9}
	chunk, err := c.GenerateChunk(context.Background(),
		llm.ChunkRequest{Model: "m", Prompt: "q", MaxTokens: 8, Cont: cont})
	if !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("err = %v, want ErrTruncatedStream", err)
	}
	if chunk.Text != "partial answer" || chunk.Done || chunk.DoneReason != "" {
		t.Fatalf("chunk = %+v", chunk)
	}
	if chunk.TotalTokens != len(cont) || chunk.EvalCount != 0 {
		t.Fatalf("token accounting on truncation: %+v", chunk)
	}
}

// TestGenerateDroppedConnection is the daemon dying mid-answer at the
// transport: two chunked token lines, then the connection closes without
// the chunked body's end. Both generation paths keep what arrived and
// report the cut as ErrTruncatedStream — the chunk path with the
// request's continuation state and the truncation counted, a stream
// session by draining the buffered text first.
func TestGenerateDroppedConnection(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"model":"m","response":"partial ","done":false,"tokens":[11]}`+"\n")
		io.WriteString(w, `{"model":"m","response":"answer","done":false,"tokens":[12]}`+"\n")
		w.(http.Flusher).Flush()
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	defer srv.Close()
	tel := telemetry.New(telemetry.Options{})
	c := New(srv.URL, WithHTTPClient(srv.Client()), WithTelemetry(tel))
	req := llm.ChunkRequest{Model: "m", Prompt: "q", MaxTokens: 8, Cont: []int{7, 9}}

	chunk, err := c.GenerateChunk(context.Background(), req)
	if !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("err = %v, want ErrTruncatedStream", err)
	}
	if chunk.Text != "partial answer" || chunk.Done || !reflect.DeepEqual(chunk.Context, req.Cont) || chunk.EvalCount != 0 {
		t.Fatalf("chunk = %+v, want the partial text at the request's continuation state", chunk)
	}
	if got := tel.ClientTruncated.Value("m"); got != 1 {
		t.Fatalf("truncated{m} = %v, want 1", got)
	}

	st, err := c.OpenStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, err := st.Next(context.Background(), 8); err != nil || got.Text != "partial answer" || got.Done {
		t.Fatalf("first slice = %+v, %v; want the buffered text", got, err)
	}
	if got, err := st.Next(context.Background(), 8); !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("second slice = %+v, %v; want ErrTruncatedStream", got, err)
	}
}

// TestClientTimeout proves the caller's deadline bounds a request to a
// hung daemon — the guard the orchestrator's per-drain deadline relies on.
func TestClientTimeout(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A request read to its end: only then does net/http watch the
		// connection, and end the context when the client hangs up.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // hang until the client gives up
	}))
	defer srv.Close()
	c := New(srv.URL, WithHTTPClient(srv.Client()))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.GenerateChunk(ctx, llm.ChunkRequest{Model: "m", Prompt: "q", MaxTokens: 8}); err == nil {
		t.Fatal("expected timeout error from a hung daemon")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("client deadline was not applied")
	}
}
