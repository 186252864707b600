package modeld

import (
	"bytes"
	"context"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
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
// and reply state come pooled with its line reader; the daemon plans the
// answer without a throwaway string.
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
	const bound, bytesBound = 46, 4170
	n, b := testing.AllocsPerRun(50, session), bytesPerRun(50, session)
	t.Logf("one session: %.0f allocations, %.0f bytes", n, b)
	if n > bound {
		t.Fatalf("one session allocates %.0f times, want at most %d", n, bound)
	}
	if b > bytesBound {
		t.Fatalf("one session allocates %.0f bytes, want at most %d", b, bytesBound)
	}
}

// TestSessionWaitCostsNothing: a session whose Next waits for the daemon
// allocates what it would on a context that can never end and with no
// Wait, allocation for allocation and byte for byte, when it is opened,
// and drained, on a context that can end, and when it is opened with a
// Wait too. Over the hop's own connection the wait is the connection's
// read deadline, and a Next on the context the session was opened with
// registers no context.AfterFunc: the exchange's already carries that
// context's end into the read.
func TestSessionWaitCostsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	c := New(sessionDaemon(t, nil).URL)
	session := func(ctx context.Context, wait time.Duration) func() {
		req := sessionReq
		req.Wait = wait
		return func() {
			st, err := c.OpenStream(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if ch, err := st.Next(ctx, 0); err != nil || !ch.Done {
				t.Fatalf("%+v, %v; want the whole answer", ch, err)
			}
			st.Close()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A collection empties the pools a session draws from, and refilling
	// them costs more than a wait could.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	base := session(context.Background(), 0)
	base() // dial and warm the pools
	n0, b0 := perRun(50, base)
	for name, f := range map[string]func(){
		"on a context that can end": session(ctx, 0),
		"with a wait":               session(ctx, 30*time.Second),
	} {
		n, b := perRun(50, f)
		t.Logf("%s: %.2f allocations, %.0f bytes; %.2f and %.0f without", name, n, b, n0, b0)
		// The means over 50 sessions move by a byte or two, and by an
		// allocation in the whole run, with what the runtime and the HTTP
		// server allocate on their own account on a loaded machine; the
		// least a wait or a cancel could cost, a timer, is an allocation
		// and over 60 B a session.
		if math.Abs(n-n0) >= 0.5 || math.Abs(b-b0) > 8 {
			t.Errorf("a session %s allocates %.2f times and %.0f bytes, %.2f and %.0f without", name, n, b, n0, b0)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean bytes allocated
// by one call of f, after warm-up calls, with one P so other goroutines'
// allocations interleave as little as they can.
func bytesPerRun(runs int, f func()) float64 {
	_, b := perRun(runs, f)
	return b
}

// perRun is the mean count and bytes of the allocations one call of f
// makes, as bytesPerRun measures them; the count is not truncated to a
// whole one, as testing.AllocsPerRun truncates it, so that one allocation
// more or less in the whole run moves it by a fraction, not by one.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 1+runs/5; i++ {
		f() // what a run makes once, such as a goroutine's first stack, is not its cost
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
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

func (w decodedFirst) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// TestDecodedSessionCostsOneWrite: a generation session whose tokens are
// all decoded before the first Fill costs the daemon one write(2) — the
// header, the token line, the done line and the end of the chunked body
// leave together, because the done line is not flushed on its own — when
// its request has a Content-Length. A full-duplex request's costs two: the
// done line is flushed, since the client ends its body only once it has
// read it, and the end of the reply follows the end of the request.
func TestDecodedSessionCostsOneWrite(t *testing.T) {
	for _, tc := range []struct {
		stops  int32
		writes int64
	}{{stopsNo, 1}, {stopsYes, 2}} {
		decodedSessionWrites(t, tc.stops, tc.writes)
	}
}

func decodedSessionWrites(t *testing.T, stops int32, writes int64) {
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
	c.stops.Store(stops)
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
		if n := counter.writes.Load() - before; n != writes {
			t.Fatalf("session %d (full duplex: %v) cost the daemon %d write(2)s, want %d", i, stops == stopsYes, n, writes)
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
// stream:false call as JSON, without a Date. The client's requests here
// have a Content-Length: it takes its daemon to have no stop line, so it
// asks no /api/version.
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
	c.stops.Store(stopsNo)
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
