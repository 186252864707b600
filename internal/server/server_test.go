package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"llmms/internal/gpu"
	"llmms/internal/llm"
	"llmms/internal/truthfulqa"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	s, err := NewServer(Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	watchResources(t, s)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s %s: %v", method, url, err)
		}
	}
	return resp
}

// sseFrames parses an SSE stream into (event, data) pairs.
func sseFrames(t *testing.T, body string) []struct{ Event, Data string } {
	t.Helper()
	var frames []struct{ Event, Data string }
	for _, frame := range strings.Split(body, "\n\n") {
		var ev, data string
		for _, line := range strings.Split(frame, "\n") {
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				ev = v
			}
			if v, ok := strings.CutPrefix(line, "data: "); ok {
				data = v
			}
		}
		if ev != "" {
			frames = append(frames, struct{ Event, Data string }{ev, data})
		}
	}
	return frames
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(Options{}); err == nil {
		t.Fatal("expected error for nil engine")
	}
}

func TestHealthVersionUI(t *testing.T) {
	_, ts := newTestServer(t)
	var health map[string]any
	resp := doJSON(t, "GET", ts.URL+"/healthz", nil, &health)
	if resp.StatusCode != 200 || health["status"] != "ok" {
		t.Fatalf("health = %d %v", resp.StatusCode, health)
	}
	var ver map[string]string
	doJSON(t, "GET", ts.URL+"/api/version", nil, &ver)
	if ver["version"] != Version {
		t.Fatalf("version = %v", ver)
	}
	resp2, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var sb strings.Builder
	if _, err := bytes.NewBuffer(nil).ReadFrom(resp2.Body); err != nil {
		_ = sb
	}
	if ct := resp2.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Fatalf("UI content type = %q", ct)
	}
	resp3, err := http.Get(ts.URL + "/no-such-page")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path = %d", resp3.StatusCode)
	}
}

// TestUIRatesWithTheSession: the UI's rate links send the session with
// the model, so a rating can reach the cluster of the session's question.
// (No browser runs here; the served script is checked as text.)
func TestUIRatesWithTheSession(t *testing.T) {
	if !strings.Contains(indexHTML, "JSON.stringify({model, session_id, rating: r})") {
		t.Fatal("the UI posts ratings without the session id")
	}
}

func TestModelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var models []map[string]any
	doJSON(t, "GET", ts.URL+"/api/models", nil, &models)
	if len(models) != 3 {
		t.Fatalf("%d models", len(models))
	}
	names := map[string]bool{}
	for _, m := range models {
		names[m["name"].(string)] = true
	}
	for _, want := range []string{llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2} {
		if !names[want] {
			t.Fatalf("missing model %s in %v", want, names)
		}
	}
}

func TestQuerySSE(t *testing.T) {
	_, ts := newTestServer(t)
	payload := QueryRequest{Query: "What happens if you swallow chewing gum?", Strategy: "oua", MaxTokens: 256}
	body, _ := json.Marshal(payload)
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	if resp.Header.Get("X-Session-ID") == "" {
		t.Fatal("no session id header")
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	frames := sseFrames(t, buf.String())
	if len(frames) < 3 {
		t.Fatalf("only %d SSE frames:\n%s", len(frames), buf.String())
	}
	kinds := map[string]int{}
	for _, f := range frames {
		kinds[f.Event]++
	}
	for _, want := range []string{"start", "chunk", "score", "winner", "result"} {
		if kinds[want] == 0 {
			t.Fatalf("no %q frames; got %v", want, kinds)
		}
	}
	// The result frame carries the full core.Result.
	last := frames[len(frames)-1]
	if last.Event != "result" {
		t.Fatalf("last frame = %s", last.Event)
	}
	var result struct {
		SessionID string `json:"session_id"`
		Result    struct {
			Answer     string `json:"answer"`
			Model      string `json:"model"`
			TokensUsed int    `json:"tokens_used"`
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(last.Data), &result); err != nil {
		t.Fatal(err)
	}
	if result.Result.Answer == "" || result.Result.TokensUsed == 0 || result.SessionID == "" {
		t.Fatalf("result = %+v", result)
	}
}

func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t)
	resp := doJSON(t, "POST", ts.URL+"/api/query", QueryRequest{Query: "   "}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query = %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", ts.URL+"/api/query", QueryRequest{Query: "q", Strategy: "wat"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy = %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", ts.URL+"/api/query", QueryRequest{Query: "q", SessionID: "nope"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session = %d", resp.StatusCode)
	}
}

func TestQueryAppendsToSession(t *testing.T) {
	_, ts := newTestServer(t)
	var sess struct {
		ID string `json:"id"`
	}
	doJSON(t, "POST", ts.URL+"/api/sessions", map[string]string{"title": "chat"}, &sess)

	payload := QueryRequest{Query: "Are bats blind?", SessionID: sess.ID, Strategy: "single", Model: llm.ModelMistral}
	body, _ := json.Marshal(payload)
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = bytes.NewBuffer(nil).ReadFrom(resp.Body)
	resp.Body.Close()

	var got struct {
		Messages []struct {
			Role    string `json:"role"`
			Content string `json:"content"`
			Model   string `json:"model"`
		} `json:"messages"`
	}
	doJSON(t, "GET", ts.URL+"/api/sessions/"+sess.ID, nil, &got)
	if len(got.Messages) != 2 {
		t.Fatalf("%d messages in session", len(got.Messages))
	}
	if got.Messages[0].Role != "user" || got.Messages[1].Role != "assistant" {
		t.Fatalf("roles = %+v", got.Messages)
	}
	if got.Messages[1].Model != llm.ModelMistral {
		t.Fatalf("assistant model = %q", got.Messages[1].Model)
	}
}

func TestSessionCRUD(t *testing.T) {
	_, ts := newTestServer(t)
	var created struct {
		ID string `json:"id"`
	}
	resp := doJSON(t, "POST", ts.URL+"/api/sessions", map[string]string{"title": "t1"}, &created)
	if resp.StatusCode != http.StatusCreated || created.ID == "" {
		t.Fatalf("create = %d %+v", resp.StatusCode, created)
	}
	var list []map[string]any
	doJSON(t, "GET", ts.URL+"/api/sessions", nil, &list)
	if len(list) != 1 {
		t.Fatalf("list = %v", list)
	}
	resp = doJSON(t, "DELETE", ts.URL+"/api/sessions/"+created.ID, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	resp = doJSON(t, "GET", ts.URL+"/api/sessions/"+created.ID, nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get deleted = %d", resp.StatusCode)
	}
	doJSON(t, "POST", ts.URL+"/api/sessions", nil, nil)
	doJSON(t, "POST", ts.URL+"/api/sessions", nil, nil)
	doJSON(t, "DELETE", ts.URL+"/api/sessions", nil, nil)
	var after []map[string]any
	doJSON(t, "GET", ts.URL+"/api/sessions", nil, &after)
	if len(after) != 0 {
		t.Fatalf("clear left %d sessions", len(after))
	}
}

func TestSettingsRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	var st Settings
	doJSON(t, "GET", ts.URL+"/api/settings", nil, &st)
	if st.Strategy != "oua" || st.MaxTokens != 2048 {
		t.Fatalf("defaults = %+v", st)
	}
	st.Strategy = "mab"
	st.MaxTokens = 512
	st.EnabledModels = []string{llm.ModelMistral, llm.ModelQwen2}
	resp := doJSON(t, "PUT", ts.URL+"/api/settings", st, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put = %d", resp.StatusCode)
	}
	var got Settings
	doJSON(t, "GET", ts.URL+"/api/settings", nil, &got)
	if got.Strategy != "mab" || got.MaxTokens != 512 || len(got.EnabledModels) != 2 || got.Model != llm.ModelLlama3 {
		t.Fatalf("settings = %+v", got)
	}
	// Invalid updates are rejected without mutating state.
	bad := got
	bad.EnabledModels = []string{"phantom:13b"}
	resp = doJSON(t, "PUT", ts.URL+"/api/settings", bad, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown model accepted: %d", resp.StatusCode)
	}
	// The single strategy's model is a model the engine serves too, or
	// every single query would fail.
	for _, model := range []string{"nope", ""} {
		bad := got
		bad.Model = model
		var env map[string]apiError
		resp = doJSON(t, "PUT", ts.URL+"/api/settings", bad, &env)
		if resp.StatusCode != http.StatusUnprocessableEntity || env["error"].Code != "unknown_model" {
			t.Fatalf("model %q: put = %d %+v, want 422 unknown_model", model, resp.StatusCode, env)
		}
	}
	bad2 := got
	bad2.MaxTokens = 0
	resp = doJSON(t, "PUT", ts.URL+"/api/settings", bad2, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("zero budget accepted: %d", resp.StatusCode)
	}
}

func TestUploadRetrieveAndRAGQuery(t *testing.T) {
	_, ts := newTestServer(t)
	content := strings.Join([]string{
		"The research cluster hosts a DGX node with eight H200 accelerators.",
		"Each accelerator provides one hundred forty one gigabytes of memory.",
		"Node maintenance happens on the first Monday of every month.",
	}, " ")
	var up struct {
		DocID  string `json:"doc_id"`
		Chunks int    `json:"chunks"`
	}
	resp := doJSON(t, "POST", ts.URL+"/api/upload",
		uploadRequest{Filename: "cluster.txt", Content: content}, &up)
	if resp.StatusCode != http.StatusCreated || up.Chunks == 0 {
		t.Fatalf("upload = %d %+v", resp.StatusCode, up)
	}

	var docs []map[string]any
	doJSON(t, "GET", ts.URL+"/api/documents", nil, &docs)
	if len(docs) != 1 || docs[0]["name"] != "cluster.txt" {
		t.Fatalf("documents = %v", docs)
	}

	// A RAG query must ground its answer in the uploaded content.
	payload := QueryRequest{Query: "How many H200 accelerators does the DGX node have?", UseRAG: true, MaxTokens: 256}
	body, _ := json.Marshal(payload)
	qresp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(qresp.Body)
	qresp.Body.Close()
	if !strings.Contains(buf.String(), "H200") && !strings.Contains(buf.String(), "eight") {
		t.Fatalf("RAG answer not grounded in document:\n%s", buf.String())
	}

	resp = doJSON(t, "DELETE", ts.URL+"/api/documents/"+up.DocID, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("doc delete = %d", resp.StatusCode)
	}
	resp = doJSON(t, "DELETE", ts.URL+"/api/documents/"+up.DocID, nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete = %d", resp.StatusCode)
	}
}

func TestUploadValidation(t *testing.T) {
	_, ts := newTestServer(t)
	resp := doJSON(t, "POST", ts.URL+"/api/upload", uploadRequest{Filename: "x.txt"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty content = %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", ts.URL+"/api/upload", uploadRequest{Filename: "x.exe", Content: "bytes"}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unsupported type = %d", resp.StatusCode)
	}
}

// TestGPUEndpoint reads /api/gpu as the daemon's is read: a gpu.Snapshot
// in its snake_case JSON shape.
func TestGPUEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var snap gpu.Snapshot
	resp := doJSON(t, "GET", ts.URL+"/api/gpu", nil, &snap)
	if resp.StatusCode != 200 {
		t.Fatalf("gpu = %d", resp.StatusCode)
	}
	if len(snap.Devices) != 1 || !strings.Contains(snap.Devices[0].Name, "Tesla") || snap.Devices[0].MemoryTotal == 0 {
		t.Fatalf("gpu telemetry: %+v", snap)
	}
}

func TestSessionContinuityAcrossQueries(t *testing.T) {
	_, ts := newTestServer(t)
	ask := func(q, sessID string) string {
		t.Helper()
		body, _ := json.Marshal(QueryRequest{Query: q, SessionID: sessID, Strategy: "single", Model: llm.ModelMistral, MaxTokens: 256})
		resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp.Header.Get("X-Session-ID")
	}
	id := ask("Are bats blind?", "")
	if id == "" {
		t.Fatal("no session created")
	}
	if got := ask("What about owls?", id); got != id {
		t.Fatalf("session id changed: %s -> %s", id, got)
	}
	var sess struct {
		TurnCount int `json:"turn_count"`
	}
	doJSON(t, "GET", ts.URL+"/api/sessions/"+id, nil, &sess)
	if sess.TurnCount != 4 {
		t.Fatalf("turn count = %d, want 4", sess.TurnCount)
	}
}

func BenchmarkQueryEndpoint(b *testing.B) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	s, err := NewServer(Options{Engine: engine})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body, _ := json.Marshal(QueryRequest{
			Query: fmt.Sprintf("Benchmark question %d: are bats blind?", i), Strategy: "oua", MaxTokens: 128,
		})
		resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
}

func TestConfigureEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var resp struct {
		Settings   Settings `json:"settings"`
		Changes    []string `json:"changes"`
		Understood bool     `json:"understood"`
	}
	r := doJSON(t, "POST", ts.URL+"/api/configure", map[string]string{
		"instruction": "avoid slow models, prioritize qwen, keep responses under 100 tokens, use the bandit",
	}, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("configure = %d", r.StatusCode)
	}
	if !resp.Understood || len(resp.Changes) == 0 {
		t.Fatalf("no changes parsed: %+v", resp)
	}
	if resp.Settings.Strategy != "mab" {
		t.Fatalf("strategy = %s", resp.Settings.Strategy)
	}
	if resp.Settings.MaxTokens != 100 {
		t.Fatalf("max tokens = %d", resp.Settings.MaxTokens)
	}
	// llama3 is the slowest profile and must be excluded; qwen first.
	for _, m := range resp.Settings.EnabledModels {
		if m == llm.ModelLlama3 {
			t.Fatalf("slow model kept: %v", resp.Settings.EnabledModels)
		}
	}
	if resp.Settings.EnabledModels[0] != llm.ModelQwen2 || resp.Settings.Model != llm.ModelQwen2 {
		t.Fatalf("preference not applied: %+v", resp.Settings)
	}
	// The change persists in /api/settings.
	var st Settings
	doJSON(t, "GET", ts.URL+"/api/settings", nil, &st)
	if st.MaxTokens != 100 || st.Strategy != "mab" {
		t.Fatalf("settings not persisted: %+v", st)
	}
}

func TestConfigureValidation(t *testing.T) {
	_, ts := newTestServer(t)
	r := doJSON(t, "POST", ts.URL+"/api/configure", map[string]string{"instruction": "  "}, nil)
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty instruction = %d", r.StatusCode)
	}
	// An instruction with no recognized clauses is a no-op, not an error.
	var resp struct {
		Understood bool `json:"understood"`
	}
	r = doJSON(t, "POST", ts.URL+"/api/configure", map[string]string{"instruction": "please be excellent"}, &resp)
	if r.StatusCode != http.StatusOK || resp.Understood {
		t.Fatalf("no-op instruction: %d %+v", r.StatusCode, resp)
	}
}

func TestQueryHybridStrategy(t *testing.T) {
	_, ts := newTestServer(t)
	body, _ := json.Marshal(QueryRequest{Query: "Are bats blind?", Strategy: "hybrid", MaxTokens: 128})
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	frames := sseFrames(t, buf.String())
	if len(frames) == 0 || frames[len(frames)-1].Event != "result" {
		t.Fatalf("hybrid query did not complete:\n%s", buf.String())
	}
}

func TestFeedbackEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// Rate an explicit model: without a session (or routing) there is no
	// cluster to absorb it.
	var out feedbackReply
	r := doJSON(t, "POST", ts.URL+"/api/feedback",
		map[string]any{"model": llm.ModelQwen2, "rating": 1.0}, &out)
	if r.StatusCode != http.StatusOK || out != (feedbackReply{Model: llm.ModelQwen2}) {
		t.Fatalf("feedback = %d %+v", r.StatusCode, out)
	}
	// Out-of-range ratings are rejected.
	r = doJSON(t, "POST", ts.URL+"/api/feedback", map[string]any{"model": "x", "rating": 2.0}, nil)
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("rating 2.0 accepted: %d", r.StatusCode)
	}
	// Missing model and session is rejected.
	r = doJSON(t, "POST", ts.URL+"/api/feedback", map[string]any{"rating": 1.0}, nil)
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("targetless rating accepted: %d", r.StatusCode)
	}
	// A model the engine does not serve is refused, as PUT /api/settings
	// refuses it.
	var env map[string]apiError
	r = doJSON(t, "POST", ts.URL+"/api/feedback", map[string]any{"model": "ghost:1b", "rating": 1.0}, &env)
	if r.StatusCode != http.StatusUnprocessableEntity || env["error"].Code != "unknown_model" {
		t.Fatalf("unknown model = %d %+v", r.StatusCode, env)
	}
	// The routing index is the one board: there is no global one.
	for _, path := range []string{"/api/feedback", "/api/arena"} {
		if r := doJSON(t, "GET", ts.URL+path, nil, nil); r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, r.StatusCode)
		}
	}
}

func TestFeedbackBySession(t *testing.T) {
	_, ts := newTestServer(t)
	// Run a single-model query so the session's last answer has a model.
	body, _ := json.Marshal(QueryRequest{Query: "Are bats blind?", Strategy: "single", Model: llm.ModelMistral, MaxTokens: 128})
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	sessID := resp.Header.Get("X-Session-ID")

	var out struct {
		Model string `json:"model"`
	}
	r := doJSON(t, "POST", ts.URL+"/api/feedback", map[string]any{"session_id": sessID, "rating": -1.0}, &out)
	if r.StatusCode != http.StatusOK || out.Model != llm.ModelMistral {
		t.Fatalf("session feedback = %d %+v", r.StatusCode, out)
	}
	// Unknown session.
	r = doJSON(t, "POST", ts.URL+"/api/feedback", map[string]any{"session_id": "ghost", "rating": 1.0}, nil)
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost session = %d", r.StatusCode)
	}
}

func TestRecallEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// Two queries in different sessions populate the memory graph.
	for _, q := range []string{"Are bats blind?", "Do goldfish really have a three-second memory?"} {
		body, _ := json.Marshal(QueryRequest{Query: q, Strategy: "single", Model: llm.ModelMistral, MaxTokens: 128})
		resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	var hits []struct {
		Exchange struct {
			Question string `json:"question"`
			Answer   string `json:"answer"`
		} `json:"exchange"`
		Score float64 `json:"score"`
	}
	doJSON(t, "GET", ts.URL+"/api/recall?q=tell+me+about+bats+and+blindness&k=1", nil, &hits)
	if len(hits) != 1 {
		t.Fatalf("recall = %v", hits)
	}
	if !strings.Contains(hits[0].Exchange.Question, "bats") {
		t.Fatalf("recall missed the bat exchange: %+v", hits)
	}
	// Missing q is rejected.
	resp := doJSON(t, "GET", ts.URL+"/api/recall", nil, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing q = %d", resp.StatusCode)
	}
}

// TestHugeRAGTopKStillAnswers: a settings write with rag_top_k = 2^40 is
// valid, and the retrieving queries after it — over an ephemeral context
// and over an uploaded document — answer with a result frame instead of
// sizing their retrieval by k and taking the process down.
func TestHugeRAGTopKStillAnswers(t *testing.T) {
	_, ts := newTestServer(t)
	var st Settings
	doJSON(t, "GET", ts.URL+"/api/settings", nil, &st)
	st.RAGTopK = 1 << 40
	if resp := doJSON(t, "PUT", ts.URL+"/api/settings", st, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("put rag_top_k 2^40 = %d", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/api/upload",
		uploadRequest{Filename: "facts.txt", Content: "The capital of France is Paris. Bats are not blind."}, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload = %d", resp.StatusCode)
	}
	for _, body := range []map[string]any{
		{"query": "What is the capital of France?", "max_tokens": 128, "ephemeral_context": "Paris is the capital of France."},
		{"query": "What is the capital of France?", "max_tokens": 128, "use_rag": true},
	} {
		resp, stream := postQuery(t, ts.URL, body)
		frames := sseFrames(t, stream)
		if resp.StatusCode != http.StatusOK || len(frames) == 0 || frames[len(frames)-1].Event != "result" {
			t.Fatalf("%v: status %d, stream does not end in a result frame:\n%s", body, resp.StatusCode, stream)
		}
	}
}

func TestSettingsValidateRejections(t *testing.T) {
	base := DefaultSettings()
	cases := []func(*Settings){
		func(s *Settings) { s.Strategy = "invalid" },
		func(s *Settings) { s.MaxTokens = 0 },
		func(s *Settings) { s.Alpha = -1 },
		func(s *Settings) { s.Beta = -0.1 },
		func(s *Settings) { s.EnabledModels = nil },
		func(s *Settings) { s.RAGTopK = 0 },
	}
	for i, mutate := range cases {
		st := base
		st.EnabledModels = append([]string(nil), base.EnabledModels...)
		mutate(&st)
		if err := st.Validate(); err == nil {
			t.Errorf("case %d: invalid settings accepted: %+v", i, st)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestSessionsAccessorAndDeleteMissing(t *testing.T) {
	s, ts := newTestServer(t)
	if s.Sessions() == nil {
		t.Fatal("nil session store")
	}
	resp := doJSON(t, "DELETE", ts.URL+"/api/sessions/ghost", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete missing session = %d", resp.StatusCode)
	}
}

func TestListenAndServe(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed().Head(3))})
	s, err := NewServer(Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port for the server

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, addr) }()

	// Wait for the server to come up, then exercise it and shut down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	// A doomed address errors immediately.
	if err := s.ListenAndServe(context.Background(), "256.0.0.1:0"); err == nil {
		t.Fatal("expected listen error for bad address")
	}
}

func TestEphemeralContextQuery(t *testing.T) {
	_, ts := newTestServer(t)
	payload := QueryRequest{
		Query:     "How many accelerators are installed in the private cluster?",
		MaxTokens: 256,
		EphemeralContext: "The private cluster has sixteen H200 accelerators installed. " +
			"Access requires security clearance. Maintenance is on Fridays.",
	}
	body, _ := json.Marshal(payload)
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "sixteen") && !strings.Contains(buf.String(), "H200") {
		t.Fatalf("answer not grounded in ephemeral context:\n%s", buf.String())
	}
	// Nothing was retained: no documents are listed afterwards.
	var docs []map[string]any
	doJSON(t, "GET", ts.URL+"/api/documents", nil, &docs)
	if len(docs) != 0 {
		t.Fatalf("ephemeral context leaked into stored documents: %v", docs)
	}
	// Malformed (empty after trim) ephemeral context is ignored, not an error.
	payload.EphemeralContext = "   "
	body, _ = json.Marshal(payload)
	resp2, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("blank ephemeral context = %d", resp2.StatusCode)
	}
}

func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	var out struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	resp := doJSON(t, "GET", ts.URL+"/api/sessions/nope", nil, &out)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Error.Code != "unknown_session" || out.Error.Message == "" {
		t.Fatalf("envelope = %+v", out)
	}

	// Validation failures use the same shape with their own codes.
	out.Error.Code, out.Error.Message = "", ""
	resp = doJSON(t, "POST", ts.URL+"/api/query", map[string]string{"query": " "}, &out)
	if resp.StatusCode != http.StatusBadRequest || out.Error.Code != "missing_field" {
		t.Fatalf("status %d envelope %+v", resp.StatusCode, out)
	}

	out.Error.Code, out.Error.Message = "", ""
	resp = doJSON(t, "POST", ts.URL+"/api/query", map[string]string{"query": "q", "strategy": "nope"}, &out)
	if resp.StatusCode != http.StatusBadRequest || out.Error.Code != "invalid_strategy" {
		t.Fatalf("status %d envelope %+v", resp.StatusCode, out)
	}
}
