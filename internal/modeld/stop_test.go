package modeld

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"llmms/internal/llm"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
)

// duplexClient is a client over tr that takes its daemon to stop on
// stopLine, as a client learns from modeld's /api/version.
func duplexClient(base string, tr *hopTransport, opts ...Option) *Client {
	c := hopClient(base, tr, opts...)
	c.stops.Store(stopsYes)
	return c
}

// learningClient is a client over tr that asks its daemon's /api/version,
// as New's does.
func learningClient(base string, tr *hopTransport, opts ...Option) *Client {
	c := hopClient(base, tr, opts...)
	c.stops.Store(stopsUnknown)
	return c
}

// pacedDaemon serves a fresh engine decoding at scale behind wrap, which
// may be nil.
func pacedDaemon(t *testing.T, scale float64, wrap func(http.Handler) http.Handler) (*httptest.Server, *llm.Engine) {
	t.Helper()
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed()), LatencyScale: scale})
	t.Cleanup(func() { engine.Close() })
	var h http.Handler = NewServer(engine)
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, engine
}

// generateRequests records the framing of the /api/generate requests that
// pass it: the Content-Length of each, -1 for a chunked one.
type generateRequests struct {
	mu      sync.Mutex
	lengths []int64
}

func (g *generateRequests) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/generate" {
			g.mu.Lock()
			g.lengths = append(g.lengths, r.ContentLength)
			g.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	})
}

func (g *generateRequests) seen() []int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.lengths)
}

// closeIdle closes every connection in tr's pool.
func closeIdle(tr *hopTransport) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for addr, idle := range tr.idle {
		for _, pc := range idle {
			pc.timer.Stop()
			pc.close()
		}
		delete(tr.idle, addr)
	}
}

// awaitTails waits until no connection in tr's pool owes the tail of a
// reply, each read to a clean end.
func awaitTails(t *testing.T, tr *hopTransport) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		owing := 0
		tr.mu.Lock()
		for _, idle := range tr.idle {
			for _, pc := range idle {
				if pc.owes {
					switch err := pc.readTail(); err {
					case nil:
					case errWouldBlock:
						owing++
					default:
						tr.mu.Unlock()
						t.Fatalf("an owed tail broke: %v", err)
					}
				}
			}
		}
		tr.mu.Unlock()
		if owing == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled connections still owe their tails", owing)
		}
	}
}

// pooled is the pool's connections to every address, checked to hold
// each at most once.
func pooled(t *testing.T, tr *hopTransport) int {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	seen := map[*hopConn]bool{}
	for _, idle := range tr.idle {
		for _, pc := range idle {
			if seen[pc] {
				t.Fatal("the pool holds a connection twice")
			}
			seen[pc] = true
		}
	}
	return len(seen)
}

// quiet waits until the engine decodes nothing and has no session open,
// and until, with tr's idle connections closed, no goroutine is left that
// was not in base, when there is one (clientGoroutines: the daemon's
// watchers are counted, its connections' goroutines are not).
func quiet(t *testing.T, engine *llm.Engine, tr *hopTransport, base map[string]bool) {
	t.Helper()
	closeIdle(tr)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		busy := engine.OpenStreams()
		for _, p := range engine.Profiles() {
			if st, ok := engine.BatchStats(p.Name); ok {
				busy += st.Active + st.Pending
			}
		}
		var extra []string
		for id := range clientGoroutines() {
			if base != nil && !base[id] {
				extra = append(extra, id)
			}
		}
		if busy == 0 && len(extra) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d generations still open, goroutines %v left over", busy, extra)
		}
	}
}

// warmBaseline runs one session on the daemon at url, so that the model's
// batch scheduler is up, and returns the goroutines then alive.
func warmBaseline(t *testing.T, url string, engine *llm.Engine) map[string]bool {
	t.Helper()
	tr := newHopTransport()
	drainSession(t, hopClient(url, tr), sessionReq, 0)
	quiet(t, engine, tr, nil)
	return clientGoroutines()
}

// openTake opens a session and takes n slices of one token from it.
func openTake(t *testing.T, c *Client, req llm.ChunkRequest, n int) (llm.ChunkStream, []string) {
	t.Helper()
	st, err := c.OpenStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for i := 0; i < n; i++ {
		ch, err := st.Next(context.Background(), 1)
		out = append(out, chunkResult(ch, err))
		if err != nil || ch.Done {
			break
		}
	}
	return st, out
}

// TestStockDaemonIsHungUpOn: a daemon whose /api/version has no stop_line,
// as a stock Ollama's has not, gets requests with a Content-Length, and a
// session closed mid-answer hangs up its connection, as before the stop
// line: counted canceled, not stopped, and the next session dials anew.
func TestStockDaemonIsHungUpOn(t *testing.T) {
	var gen generateRequests
	srv, engine := pacedDaemon(t, 0.05, func(h http.Handler) http.Handler {
		return gen.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/api/version" {
				io.WriteString(w, `{"version":"0.4.5"}`)
				return
			}
			h.ServeHTTP(w, r)
		}))
	})
	base := warmBaseline(t, srv.URL, engine)
	tr := newHopTransport()
	dials := countDials(tr)
	tel := telemetry.New(telemetry.Options{})
	c := learningClient(srv.URL, tr, WithTelemetry(tel))
	st, _ := openTake(t, c, sessionReq, 1)
	st.Close()
	if got := c.stops.Load(); got != stopsNo {
		t.Fatalf("learned %d from a version without stop_line, want no (%d)", got, stopsNo)
	}
	drainSession(t, c, sessionReq, 0)
	if n := dials.Load(); n != 2 {
		t.Fatalf("dialed %d connections, want 2: the version's, reused by the closed session and hung up, and one more", n)
	}
	for _, n := range gen.seen()[1:] {
		if n <= 0 {
			t.Fatalf("generate requests' lengths %v, want each a Content-Length", gen.seen()[1:])
		}
	}
	if s, ca := tel.ClientStops.Value(llm.ModelMistral), tel.ClientRequests.Value("generate_stream", "canceled"); s != 0 || ca != 1 {
		t.Fatalf("stops %v, canceled %v; want 0 and 1", s, ca)
	}
	quiet(t, engine, tr, base)
}

// hidingWriter is a ResponseWriter that can flush but hides what it wraps
// from http.ResponseController, so it cannot go full duplex.
type hidingWriter struct{ http.ResponseWriter }

func (w hidingWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestDuplexRefusedFallsBackPlain: a daemon behind a ResponseWriter that
// cannot go full duplex answers a full-duplex request at once with 411,
// before it reads the body; the client resends it with a Content-Length,
// and from then on sends every request so.
func TestDuplexRefusedFallsBackPlain(t *testing.T) {
	var gen generateRequests
	srv, engine := pacedDaemon(t, 0, func(h http.Handler) http.Handler {
		return gen.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(hidingWriter{w}, r)
		}))
	})
	base := warmBaseline(t, srv.URL, engine)
	tr := newHopTransport()
	c := learningClient(srv.URL, tr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	st, err := c.OpenStream(ctx, sessionReq)
	if err != nil {
		t.Fatalf("after a refused full-duplex request: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the refused request took %v", took)
	}
	if ch, err := st.Next(ctx, 0); err != nil || !ch.Done {
		t.Fatalf("%+v, %v; want the whole answer", ch, err)
	}
	st.Close()
	drainSession(t, c, sessionReq, 0)
	if got, want := gen.seen()[1:], []int64{-1, 0, 0}; len(got) != 3 || got[0] != want[0] || got[1] <= 0 || got[2] <= 0 {
		t.Fatalf("generate requests' lengths %v, want a chunked one and then two with a Content-Length", got)
	}
	if got := c.stops.Load(); got != stopsNo {
		t.Fatalf("stops = %d after a refusal, want no (%d)", got, stopsNo)
	}
	quiet(t, engine, tr, base)
}

// scriptedDuplex is a daemon that reads a request's body in full duplex:
// it writes lines, then reads the body up to its next line, and then
// calls after with that line (empty at the body's end).
func scriptedDuplex(t *testing.T, serve func(w http.ResponseWriter, prompt string, body *bufio.Reader)) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
			t.Error(err)
			return
		}
		body := bufio.NewReader(r.Body)
		first, _ := body.ReadBytes('\n')
		var req GenerateRequest
		rb := requestBuf{body: first}
		rb.decode(&req)
		w.Header().Set("Content-Type", "application/x-ndjson")
		serve(w, req.Prompt, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// answer writes a token line and a done line, flushed, and reads the body
// to its end, as a daemon that was never stopped.
func answer(w http.ResponseWriter, body *bufio.Reader) {
	io.WriteString(w, tokenLine("Hel", []int{1}, nil))
	io.WriteString(w, endLine("lo", []int{2}, nil, llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{1, 2}, EvalCount: 2}))
	w.(http.Flusher).Flush()
	io.Copy(io.Discard, body)
}

// TestIgnoredStopEndsWithinWait: a daemon that reads the stop line and
// ignores it, going on with a reply it never ends, costs the client
// nothing: Close returns at once, counted a stop; the connection, pooled
// owing its tail, is never handed out, so the next session dials and reads
// its whole answer within its Wait; and the connection is closed when its
// idle time runs out.
func TestIgnoredStopEndsWithinWait(t *testing.T) {
	ignoring := make(chan struct{})
	srv := scriptedDuplex(t, func(w http.ResponseWriter, prompt string, body *bufio.Reader) {
		if prompt != "ignore" {
			answer(w, body)
			return
		}
		io.WriteString(w, tokenLine("Hel", []int{1}, nil))
		w.(http.Flusher).Flush()
		stop, _ := body.ReadString('\n')
		if stop != stopLine+"\n" {
			t.Errorf("the body went on %q, want the stop line", stop)
		}
		close(ignoring)
		for {
			if _, err := io.WriteString(w, tokenLine("lo", []int{2}, nil)); err != nil {
				return
			}
			w.(http.Flusher).Flush()
			time.Sleep(5 * time.Millisecond)
		}
	})
	base := clientGoroutines()
	tr := newHopTransport()
	dials := countDials(tr)
	tel := telemetry.New(telemetry.Options{})
	c := duplexClient(srv.URL, tr, WithTelemetry(tel))
	st, _ := openTake(t, c, llm.ChunkRequest{Model: "m", Prompt: "ignore", MaxTokens: 8}, 1)
	start := time.Now()
	st.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v", took)
	}
	<-ignoring
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	next, err := c.OpenStream(ctx, llm.ChunkRequest{Model: "m", Prompt: "next", MaxTokens: 8, Wait: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if ch, err := next.Next(ctx, 0); err != nil || ch.Text != "Hello" || !ch.Done {
		t.Fatalf("the next session: %+v, %v; want the whole answer", ch, err)
	}
	next.Close()
	if n := dials.Load(); n != 2 {
		t.Fatalf("dialed %d connections, want 2", n)
	}
	if s, ca := tel.ClientStops.Value("m"), tel.ClientRequests.Value("generate_stream", "canceled"); s != 1 || ca != 1 {
		t.Fatalf("stops %v, canceled %v; want 1 and 1", s, ca)
	}
	// The idle timer of the connection still owing its tail runs out.
	tr.mu.Lock()
	var owed *hopConn
	for _, idle := range tr.idle {
		for _, pc := range idle {
			if pc.owes {
				owed = pc
			}
		}
	}
	if owed != nil {
		owed.idleAt = time.Now().Add(-idleTimeout)
	}
	tr.mu.Unlock()
	if owed == nil {
		t.Fatal("no pooled connection owes the ignored reply's tail")
	}
	owed.closeIdle()
	if n := pooled(t, tr); n != 1 {
		t.Fatalf("%d connections pooled after the idle timeout, want the next session's alone", n)
	}
	closeIdle(tr)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		extra := 0
		for id := range clientGoroutines() {
			if !base[id] {
				extra++
			}
		}
		if extra == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left over", extra)
		}
	}
}

// TestStopCrossingDoneLinePoolsOnce: a stop the daemon reads after it
// wrote its done line — the two crossing on the wire — ends the reply as
// the done line already did, and the connection goes back to the pool
// once, clean for the next session; the same over a real daemon, closing
// sessions after every few tokens of answers it has all but finished.
func TestStopCrossingDoneLinePoolsOnce(t *testing.T) {
	srv := scriptedDuplex(t, func(w http.ResponseWriter, prompt string, body *bufio.Reader) {
		if prompt != "cross" {
			answer(w, body)
			return
		}
		io.WriteString(w, tokenLine("Hel", []int{1}, nil))
		w.(http.Flusher).Flush()
		if stop, _ := body.ReadString('\n'); stop != stopLine+"\n" {
			t.Errorf("the body went on %q, want the stop line", stop)
		}
		io.WriteString(w, endLine("lo", []int{2}, nil, llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{1, 2}, EvalCount: 2}))
		io.Copy(io.Discard, body)
	})
	tr := newHopTransport()
	dials := countDials(tr)
	c := duplexClient(srv.URL, tr)
	for i := 0; i < 3; i++ {
		st, _ := openTake(t, c, llm.ChunkRequest{Model: "m", Prompt: "cross", MaxTokens: 8}, 1)
		st.Close()
		awaitTails(t, tr)
		if n := pooled(t, tr); n != 1 {
			t.Fatalf("%d connections pooled after the crossing stop, want 1", n)
		}
		next := drainSession(t, c, llm.ChunkRequest{Model: "m", Prompt: "next", MaxTokens: 8}, 0)
		if len(next) != 1 || next[0].Text != "Hello" {
			t.Fatalf("the next session read %+v, want the whole answer", next)
		}
		awaitTails(t, tr)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dialed %d connections, want the one reused", n)
	}
	closeIdle(tr)

	// A real daemon that decodes faster than the client closes: most stops
	// cross its done line, some stop it.
	srv2, engine := pacedDaemon(t, 0, nil)
	base := warmBaseline(t, srv2.URL, engine)
	tr2 := newHopTransport()
	dials2 := countDials(tr2)
	c2 := duplexClient(srv2.URL, tr2)
	for i := 0; i < 60; i++ {
		st, _ := openTake(t, c2, sessionReq, i%4)
		st.Close()
	}
	awaitTails(t, tr2)
	// A session that opens while the last one's tail is still in flight
	// dials; every connection dialled is pooled, once.
	if n, d := pooled(t, tr2), dials2.Load(); int64(n) != d {
		t.Fatalf("%d connections pooled after 60 sequential sessions that dialed %d", n, d)
	}
	if got := drainSession(t, c2, sessionReq, 0); len(got) != 1 || !got[0].Done {
		t.Fatalf("after the stops: %+v, want the whole answer", got)
	}
	quiet(t, engine, tr2, base)
}

// TestStoppedSessionMatchesHangUp holds the stop to the hang-up it
// replaces, its reference: a session closed after any number of its
// tokens has handed out the same chunks, byte for byte, whether its
// request was full duplex and stopped the daemon in band or had a
// Content-Length and hung up; and the stopped session's connection,
// once its tail is in, carries the next session's whole answer.
func TestStoppedSessionMatchesHangUp(t *testing.T) {
	srv, engine := pacedDaemon(t, 0.05, nil)
	base := warmBaseline(t, srv.URL, engine)
	hangTr, stopTr := newHopTransport(), newHopTransport()
	hang, stop := hopClient(srv.URL, hangTr), duplexClient(srv.URL, stopTr)
	dials := countDials(stopTr)
	var full []string
	for _, ch := range drainSession(t, hang, sessionReq, 1) {
		full = append(full, chunkResult(ch, nil))
	}
	for n := 0; n <= len(full); n++ {
		var got [2][]string
		for i, c := range []*Client{hang, stop} {
			st, out := openTake(t, c, sessionReq, n)
			st.Close()
			got[i] = out
		}
		if !slices.Equal(got[0], got[1]) {
			t.Fatalf("closed after %d tokens:\nhung up %s\nstopped %s", n, strings.Join(got[0], " | "), strings.Join(got[1], " | "))
		}
		awaitTails(t, stopTr)
		var next []string
		for _, ch := range drainSession(t, stop, sessionReq, 1) {
			next = append(next, chunkResult(ch, nil))
		}
		if !slices.Equal(next, full) {
			t.Fatalf("after a stop at %d tokens the next session read\n%s\nwant\n%s", n, strings.Join(next, " | "), strings.Join(full, " | "))
		}
		awaitTails(t, stopTr)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("the stopping client dialed %d connections, want 1", n)
	}
	closeIdle(hangTr)
	quiet(t, engine, stopTr, base)
}

// TestClientCountersAllocateNothing: counting a stop and a dial into
// series that exist allocates nothing.
func TestClientCountersAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	tel := telemetry.New(telemetry.Options{})
	c := &Client{tel: tel}
	tel.ClientStops.Inc(llm.ModelMistral)
	c.countDials(1)
	if n := testing.AllocsPerRun(100, func() {
		tel.ClientStops.Inc(llm.ModelMistral)
		c.countDials(2)
	}); n != 0 {
		t.Fatalf("counting a stop and a dial: %v allocations, want 0", n)
	}
	if got := fmt.Sprint(tel.ClientDials.Value()); got != "203" {
		t.Fatalf("dials counted %s, want 203", got)
	}
}

// hasStopLine is the reference for the daemon's watcher: whether body,
// the lines after a request's first, holds a line that is exactly
// stopLine, newline and all.
func hasStopLine(body []byte) bool {
	lines := strings.Split(string(body), "\n")
	return slices.Contains(lines[:len(lines)-1], stopLine)
}

// FuzzStopLines sends the daemon a full-duplex request whose body, after
// the generate object, carries arbitrary bytes in chunks of arbitrary
// sizes, then ends. Whatever they are, the reply ends in exactly one done
// line; the generation stops — a done line of reason cancel — if and only
// if a line of them is exactly the stop line (the engine is paced so that
// the generation outlasts the body by tens of milliseconds); and the
// handler returns, which the end of the reply shows.
func FuzzStopLines(f *testing.F) {
	f.Add([]byte(stopLine+"\n"), []byte{3})
	f.Add([]byte("x\n"+stopLine+"\n"), []byte{1, 1, 1})
	f.Add([]byte(stopLine), []byte{64})
	f.Add([]byte(` {"stop":true}`+"\n"+stopLine+"\r\n"), []byte{5, 2})
	f.Add([]byte("\n\n"), []byte{})
	f.Add([]byte{}, []byte{})
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed()), LatencyScale: 1})
	defer engine.Close()
	srv := httptest.NewServer(NewServer(engine))
	defer srv.Close()
	var rb requestBuf
	rb.encode(&GenerateRequest{Model: llm.ModelMistral, Prompt: "Are bats blind?", Options: struct {
		NumPredict   int  `json:"num_predict,omitempty"`
		StreamTokens bool `json:"stream_tokens,omitempty"`
	}{NumPredict: 4, StreamTokens: true}})
	first := append(rb.body, '\n')
	f.Fuzz(func(t *testing.T, body, cuts []byte) {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		msg := fmt.Appendf(nil, "POST /api/generate HTTP/1.1\r\nHost: modeld\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n", len(first), first)
		for rest := body; len(rest) > 0; {
			n := len(rest)
			if len(cuts) > 0 {
				n, cuts = min(n, int(cuts[0])+1), cuts[1:]
			}
			msg = fmt.Appendf(msg, "%x\r\n%s\r\n", n, rest[:n])
			rest = rest[n:]
		}
		if _, err := conn.Write(append(msg, "0\r\n\r\n"...)); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body) // to the end of the chunked reply
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s, %q, %v", resp.Status, reply, err)
		}
		var done []GenerateResponse
		for _, line := range strings.Split(strings.TrimSuffix(string(reply), "\n"), "\n") {
			var gr GenerateResponse
			if err := json.Unmarshal([]byte(line), &gr); err != nil {
				t.Fatalf("reply line %q: %v", line, err)
			}
			if gr.Done {
				done = append(done, gr)
			}
		}
		if len(done) != 1 || !strings.HasSuffix(string(reply), "\n") {
			t.Fatalf("the reply %q ends in %d done lines, want exactly one", reply, len(done))
		}
		if stopped, want := done[0].DoneReason == string(llm.DoneCancel), hasStopLine(body); stopped != want {
			t.Fatalf("body %q: the generation ended %q, want stopped %v", body, done[0].DoneReason, want)
		}
	})
}
