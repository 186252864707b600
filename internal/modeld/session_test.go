package modeld

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// and bytes over the default client, both ends of the hop counted: the
// request goes straight to the hop transport, which writes it from the
// pooled body and reads the reply's head in place, with no http.Request,
// http.Response or header map and one context.AfterFunc; the session reads
// the reply on the caller's goroutine and starts none, and its token stores
// and reply state come pooled with its line reader.
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
	const bound, bytesBound = 60, 4700
	if n := testing.AllocsPerRun(50, session); n > bound {
		t.Fatalf("one session allocates %.0f times, want at most %d", n, bound)
	}
	if n := bytesPerRun(50, session); n > bytesBound {
		t.Fatalf("one session allocates %.0f bytes, want at most %d", n, bytesBound)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean bytes allocated
// by one call of f, after a warm-up call, with one P so other goroutines'
// allocations interleave as little as they can.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// writeCounter is a listener whose connections count their writes: the
// write(2)s the server side of a connection makes.
type writeCounter struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{c, &l.writes}, nil
}

type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// decodedFirst holds a response's header until the engine's batch has
// drained, so the handler's first Fill finds the whole generation decoded.
type decodedFirst struct {
	http.ResponseWriter
	idle <-chan struct{}
}

func (w decodedFirst) WriteHeader(code int) {
	<-w.idle
	w.ResponseWriter.WriteHeader(code)
}

func (w decodedFirst) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestDecodedSessionCostsOneWrite: a generation session whose tokens are
// all decoded before the first Fill costs the daemon one write(2) — the
// header, the token line, the done line and the end of the chunked body
// leave together, because the done line is not flushed on its own.
func TestDecodedSessionCostsOneWrite(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	t.Cleanup(func() { engine.Close() })
	h := NewServer(engine)
	idle := make(chan struct{}, 1)
	// After NewServer, which installs the daemon's own hooks.
	engine.SetBatchHooks(llm.BatchHooks{Idle: func(string) {
		select {
		case idle <- struct{}{}:
		default:
		}
	}})
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // a wake-up left over from the last session
		case <-idle:
		default:
		}
		h.ServeHTTP(decodedFirst{w, idle}, r)
	}))
	counter := &writeCounter{Listener: srv.Listener}
	srv.Listener = counter
	settled := make(chan struct{}, 1)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateIdle || s == http.StateClosed {
			select {
			case settled <- struct{}{}:
			default:
			}
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	c := New(srv.URL)
	for i := 0; i < 3; i++ {
		before := counter.writes.Load()
		if got := drainSession(t, c, sessionReq, 0); len(got) != 1 || got[0].EvalCount == 0 {
			t.Fatalf("session %d = %+v, want the whole answer in one slice", i, got)
		}
		select {
		case <-settled: // the response is over, its end written
		case <-time.After(5 * time.Second):
			t.Fatal("the daemon never finished the response")
		}
		if n := counter.writes.Load() - before; n != 1 {
			t.Fatalf("session %d cost the daemon %d write(2)s, want 1", i, n)
		}
	}
}

// TestLineWriterPoolBound: a writer that grew past maxPooledBody for a
// long reply is not pooled, so whatever the pool hands out next is of
// ordinary size.
func TestLineWriterPoolBound(t *testing.T) {
	rec := httptest.NewRecorder()
	lw := newLineWriter(rec, "m", false)
	lw.reply(strings.Repeat("x", maxPooledBody+1), llm.Chunk{Done: true, DoneReason: llm.DoneStop}, nil)
	lw.release()
	for i := 0; i < 8; i++ {
		lw := lineWriterPool.Get().(*lineWriter)
		if n := max(cap(lw.out), cap(lw.batch.Text), cap(lw.pend)); n > maxPooledBody {
			t.Fatalf("the pool kept a writer with a %d-byte buffer", n)
		}
		defer lw.release()
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
// passed in, and nothing else does: that is where a tracing or
// header-injecting tripper hooks the hop.
func TestWithHTTPClientTransportSeesGeneration(t *testing.T) {
	ct := &countingTripper{paths: map[string]int{}}
	c := New(sessionDaemon(t, nil).URL, WithHTTPClient(&http.Client{Transport: ct}))
	drainSession(t, c, sessionReq, 0)
	if _, err := c.GenerateChunk(context.Background(), llm.ChunkRequest{Model: llm.ModelMistral, Prompt: "Are bats blind?", MaxTokens: 4}); err != nil {
		t.Fatal(err)
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.paths["/api/generate"] != 2 || len(ct.paths) != 1 {
		t.Fatalf("the transport saw %v, want 2 generation requests and nothing else", ct.paths)
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
		var rb requestBuf
		rb.encode(&GenerateRequest{Model: llm.ModelMistral, Prompt: "Are bats blind?", Stream: &tc.stream})
		resp, err := http.Post(srv.URL+"/api/generate", "application/json", bytes.NewReader(rb.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("Content-Type"); got != tc.want {
			t.Errorf("stream=%v: Content-Type = %q, want %q", tc.stream, got, tc.want)
		}
		if v, ok := resp.Header["Date"]; ok {
			t.Errorf("stream=%v: daemon sent Date %q", tc.stream, v)
		}
	}
}
