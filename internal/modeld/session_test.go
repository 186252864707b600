package modeld

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"llmms/internal/llm"
	"llmms/internal/truthfulqa"
)

// sessionDaemon serves a fresh engine over the seed questions behind
// wrap, which may be nil.
func sessionDaemon(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	t.Cleanup(func() { engine.Close() })
	var h http.Handler = NewServer(engine)
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

var sessionReq = llm.ChunkRequest{Model: llm.ModelMistral, Prompt: "Are bats blind?", MaxTokens: 16}

// TestGenerationSessionAllocs pins what one session costs in allocations
// over the default client, both ends of the hop counted: the request
// goes straight to the tuned transport, carries no headers the daemon
// does not read, and the stream buffer's stores come from a pool.
func TestGenerationSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	c := New(sessionDaemon(t, nil).URL)
	session := func() {
		st, err := c.OpenStream(context.Background(), sessionReq)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Next(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	session() // dial and warm the pools
	const bound = 113
	if n := testing.AllocsPerRun(50, session); n > bound {
		t.Fatalf("one session allocates %.0f times, want at most %d", n, bound)
	}
}

// countingTripper counts the requests that reach it per path.
type countingTripper struct {
	mu    sync.Mutex
	paths map[string]int
}

func (ct *countingTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	ct.mu.Lock()
	ct.paths[req.URL.Path]++
	ct.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// TestWithHTTPClientTransportSeesGeneration checks generation, which
// bypasses http.Client, still goes through the RoundTripper a caller
// passed in: that is where a tracing or header-injecting tripper hooks
// the hop.
func TestWithHTTPClientTransportSeesGeneration(t *testing.T) {
	ct := &countingTripper{paths: map[string]int{}}
	c := New(sessionDaemon(t, nil).URL, WithHTTPClient(&http.Client{Transport: ct}))
	drainSession(t, c, sessionReq, 0)
	if _, err := c.GenerateChunk(context.Background(), llm.ChunkRequest{Model: llm.ModelMistral, Prompt: "Are bats blind?", MaxTokens: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Version(context.Background()); err != nil {
		t.Fatal(err)
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.paths["/api/generate"] != 2 || ct.paths["/api/version"] != 1 {
		t.Fatalf("the transport saw %v, want 2 generation requests and 1 version", ct.paths)
	}
}

// TestGenerationWireHeaders pins the hop's header contract: a generation
// request from the default client carries no Accept-Encoding and no
// User-Agent, and the daemon answers a stream as NDJSON and a
// stream:false call as JSON, without a Date.
func TestGenerationWireHeaders(t *testing.T) {
	var mu sync.Mutex
	var seen []http.Header
	srv := sessionDaemon(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen = append(seen, r.Header.Clone())
			mu.Unlock()
			h.ServeHTTP(w, r)
		})
	})
	c := New(srv.URL)
	drainSession(t, c, sessionReq, 0)
	if _, err := c.GenerateChunk(context.Background(), llm.ChunkRequest{Model: llm.ModelMistral, Prompt: "Are bats blind?", MaxTokens: 4}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for _, h := range seen {
		for _, name := range []string{"Accept-Encoding", "User-Agent"} {
			if v, ok := h[name]; ok {
				t.Errorf("generation request carries %s: %q", name, v)
			}
		}
		if got := h.Get("Content-Type"); got != "application/json" {
			t.Errorf("generation request Content-Type = %q, want application/json", got)
		}
	}
	if len(seen) != 2 {
		t.Errorf("daemon saw %d requests, want 2", len(seen))
	}
	mu.Unlock()

	for _, tc := range []struct {
		stream bool
		want   string
	}{{true, "application/x-ndjson"}, {false, "application/json"}} {
		req := GenerateRequest{Model: llm.ModelMistral, Prompt: "Are bats blind?", Stream: &tc.stream}
		resp, body, err := c.postGenerate(context.Background(), &req, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		body.release()
		if got := resp.Header.Get("Content-Type"); got != tc.want {
			t.Errorf("stream=%v: Content-Type = %q, want %q", tc.stream, got, tc.want)
		}
		if v, ok := resp.Header["Date"]; ok {
			t.Errorf("stream=%v: daemon sent Date %q", tc.stream, v)
		}
	}
}
