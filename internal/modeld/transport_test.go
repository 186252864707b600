package modeld

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llmms/internal/llm"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
)

// referenceTransport is the tuned net/http transport the hop ran over
// before hopTransport, kept as the reference it is held to.
func referenceTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          64,
		MaxIdleConnsPerHost:   32,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: time.Second,
		DisableCompression:    true,
	}
}

// hopClient is a client whose generation requests go through tr, over the
// route New gives a client without WithHTTPClient, and that takes its
// daemon — a script, not modeld — to have no stop line: it asks no
// /api/version, and its sessions' requests carry a Content-Length.
func hopClient(base string, tr *hopTransport, opts ...Option) *Client {
	c := New(base, opts...)
	c.route.(*hopRoute).t = tr
	c.stops.Store(stopsNo)
	return c
}

// TestDefaultClientSharedOnce pins the New(base) contract: the default
// transport is the hop's own, built exactly once and shared across
// clients, with more idle room per host than net/http's default; it sends
// a URL it cannot serve to WithHTTPClient, and WithHTTPClient overrides it.
func TestDefaultClientSharedOnce(t *testing.T) {
	hop := func(c *Client) *hopTransport {
		t.Helper()
		r, ok := c.route.(*hopRoute)
		if !ok {
			t.Fatalf("the default route is %T, want *hopRoute", c.route)
		}
		return r.t
	}
	a := hop(New("http://127.0.0.1:1"))
	if b := hop(New("http://127.0.0.1:2")); a != b {
		t.Fatal("option-less clients must share one hop transport")
	}
	if maxIdlePerHost <= http.DefaultMaxIdleConnsPerHost {
		t.Fatalf("maxIdlePerHost = %d, want more than net/http's default %d",
			maxIdlePerHost, http.DefaultMaxIdleConnsPerHost)
	}
	_, err := New("https://127.0.0.1:5").GenerateChunk(context.Background(), hopReq)
	if !errors.Is(err, errNotHTTP) || !strings.Contains(err.Error(), "WithHTTPClient") {
		t.Fatalf("an https daemon through the default transport: %v, want an error naming WithHTTPClient", err)
	}
	if _, err := New("https://127.0.0.1:5").OpenStream(context.Background(), hopReq); !errors.Is(err, errNotHTTP) {
		t.Fatalf("a session with an https daemon through the default transport: %v, want errNotHTTP", err)
	}
	own := referenceTransport()
	for _, tc := range []struct {
		hc   *http.Client
		want http.RoundTripper
	}{{&http.Client{Transport: own}, own}, {&http.Client{}, http.DefaultTransport}} {
		c := New("https://127.0.0.1:3", WithHTTPClient(tc.hc))
		if r, ok := c.route.(*roundTripRoute); !ok || r.rt != tc.want {
			t.Fatalf("WithHTTPClient(%+v) routes through %+v, want %T", tc.hc, c.route, tc.want)
		}
	}
	// A nil override keeps the default rather than nil-ing the client.
	if hop(New("http://127.0.0.1:4", WithHTTPClient(nil))) != a {
		t.Fatal("WithHTTPClient(nil) must keep the shared default")
	}
}

// countDials makes tr count the connections it dials.
func countDials(tr *hopTransport) *atomic.Int64 {
	dials := new(atomic.Int64)
	dial := tr.dial
	tr.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return dial(ctx, network, addr)
	}
	return dials
}

// waveServer answers a generation request with a done line once every
// request of a wave has arrived, so a wave of n requests occupies n
// distinct connections.
func waveServer(t *testing.T) (srv *httptest.Server, wave *sync.WaitGroup) {
	wave = new(sync.WaitGroup)
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wave.Done()
		wave.Wait()
		io.WriteString(w, lineDone+"\n")
	}))
	t.Cleanup(srv.Close)
	return srv, wave
}

// runWave sends n concurrent GenerateChunk requests through c and waits
// for them.
func runWave(t *testing.T, c *Client, wave *sync.WaitGroup, n int) {
	wave.Add(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.GenerateChunk(context.Background(), hopReq); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestDefaultClientReusesConnections proves the fan-out tuning end to
// end: a wave of concurrent requests — one per simulated model, more
// than http.DefaultClient's 2 idle connections per host — is followed by
// a second wave that dials NO new TCP connections, because the transport
// kept every stream's connection idle for reuse. A connection is back in
// the pool by the time its request returns, so the second wave follows
// the first at once.
func TestDefaultClientReusesConnections(t *testing.T) {
	const models = 6
	srv, wave := waveServer(t)
	tr := newHopTransport()
	dials := countDials(tr)
	client := hopClient(srv.URL, tr)

	runWave(t, client, wave, models)
	opened := dials.Load()
	if opened < models {
		t.Fatalf("first wave dialed %d connections, want %d concurrent", opened, models)
	}
	runWave(t, client, wave, models)
	if after := dials.Load(); after != opened {
		t.Fatalf("second wave dialed %d new connections; the transport should reuse all %d idle ones",
			after-opened, opened)
	}
}

// clientGoroutines returns the ids of the live goroutines that are not a
// test server's connections.
func clientGoroutines() map[string]bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]bool{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "net/http.(*conn)") || strings.Contains(g, "net/http.(*connReader)") {
			continue
		}
		if id, _, ok := strings.Cut(strings.TrimPrefix(g, "goroutine "), " "); ok {
			ids[id] = true
		}
	}
	return ids
}

// TestIdleConnectionHoldsNoGoroutine: a connection idle in the hop
// transport's pool holds no goroutine, where net/http's transport holds two
// per connection (its read and write loops).
func TestIdleConnectionHoldsNoGoroutine(t *testing.T) {
	const conns = 4
	for _, tc := range []struct {
		name    string
		client  func(url string) *Client
		perConn int
	}{
		{"hop", func(url string) *Client { return hopClient(url, newHopTransport()) }, 0},
		{"reference", func(url string) *Client {
			return New(url, WithHTTPClient(&http.Client{Transport: referenceTransport()}))
		}, 2},
	} {
		srv, wave := waveServer(t)
		client := tc.client(srv.URL)
		before := clientGoroutines()
		runWave(t, client, wave, conns)
		want := tc.perConn * conns
		var added int
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			added = 0
			for id := range clientGoroutines() {
				if !before[id] {
					added++
				}
			}
			if added == want || time.Now().After(deadline) {
				break
			}
		}
		if added != want {
			t.Fatalf("%s: %d idle connections hold %d goroutines, want %d", tc.name, conns, added, want)
		}
		srv.Close()
	}
}

// rawDaemon is a daemon scripted byte for byte. It answers each request
// with the next reply handed to it, and records each request's bytes and
// the connection it arrived on; connections are numbered from 1 as they
// are accepted.
type rawDaemon struct {
	url     string
	ln      net.Listener
	replies chan rawReply
	// bodied answers a request with a chunked body, a full-duplex one: the
	// first part before the body has ended, the second once it has and
	// the request is recorded.
	bodied chan [2]string
	hungUp chan int      // connections the client closed
	done   chan struct{} // closed at the test's end

	mu    sync.Mutex
	conns []net.Conn
	seen  []rawRequest
}

type rawRequest struct {
	conn  int
	bytes string
}

// rawReply writes one reply on c and reports whether the daemon hangs up
// after it; otherwise it goes on reading the connection.
type rawReply func(c *net.TCPConn) (hangUp bool)

func newRawDaemon(t *testing.T) *rawDaemon {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &rawDaemon{url: "http://" + ln.Addr().String(), ln: ln, replies: make(chan rawReply, 1),
		bodied: make(chan [2]string, 1),
		hungUp: make(chan int, 64), done: make(chan struct{})}
	var served sync.WaitGroup
	t.Cleanup(func() {
		close(d.done)
		ln.Close()
		d.mu.Lock()
		for _, c := range d.conns {
			c.Close()
		}
		d.mu.Unlock()
		served.Wait()
	})
	served.Add(1)
	go func() {
		defer served.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			d.mu.Lock()
			d.conns = append(d.conns, c)
			n := len(d.conns)
			d.mu.Unlock()
			served.Add(1)
			go func() {
				defer served.Done()
				d.serve(c.(*net.TCPConn), n)
			}()
		}
	}()
	return d
}

func (d *rawDaemon) serve(c *net.TCPConn, n int) {
	defer c.Close()
	var rec bytes.Buffer
	br := bufio.NewReader(io.TeeReader(c, &rec))
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			d.hungUp <- n
			return
		}
		record := func() {
			io.Copy(io.Discard, req.Body)
			raw := rec.Next(rec.Len() - br.Buffered())
			d.mu.Lock()
			d.seen = append(d.seen, rawRequest{n, string(raw)})
			d.mu.Unlock()
		}
		if req.ContentLength < 0 {
			select {
			case reply := <-d.bodied:
				io.WriteString(c, reply[0])
				record()
				io.WriteString(c, reply[1])
			case <-d.done:
				return
			}
			continue
		}
		record()
		select {
		case reply := <-d.replies:
			if reply(c) {
				return
			}
		case <-d.done: // a request the script has no reply for
			return
		}
	}
}

// reset forgets the requests the daemon saw. Connections keep their
// numbers, so a hang-up from an earlier run is never taken for a later
// one.
func (d *rawDaemon) reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seen = nil
}

// lastConn is the connection the latest request arrived on.
func (d *rawDaemon) lastConn() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.seen) == 0 {
		return 0
	}
	return d.seen[len(d.seen)-1].conn
}

// awaitHangUp waits for the client to close connection n.
func (d *rawDaemon) awaitHangUp(t *testing.T, n int) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case got := <-d.hungUp:
			if got == n {
				return
			}
		case <-timeout:
			t.Fatalf("the client kept connection %d open", n)
		}
	}
}

// Raw replies.
const (
	ndjsonHead = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n"
	lineHel    = `{"model":"m","response":"Hel","done":false,"tokens":[1],"token_ends":[3]}`
	lineLo     = `{"model":"m","response":"lo","done":false,"tokens":[2],"token_ends":[2]}`
	lineDone   = `{"model":"m","response":"","done":true,"done_reason":"stop","context":[1,2],"eval_count":2}`
)

// chunk is one NDJSON line as a chunk of a chunked body.
func chunk(line string) string { return fmt.Sprintf("%x\r\n%s\n\r\n", len(line)+1, line) }

// reply writes parts in order, one write each, and hangs up or not.
func reply(hangUp bool, parts ...string) rawReply {
	return func(c *net.TCPConn) bool {
		for _, p := range parts {
			if _, err := io.WriteString(c, p); err != nil {
				return true
			}
		}
		return hangUp
	}
}

// jsonReply is a reply with a Content-Length body, and extra header lines.
func jsonReply(status, body, extra string) string {
	return "HTTP/1.1 " + status + "\r\nContent-Type: application/json\r\n" + extra +
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

// errClass is how a caller tells errors apart: none, a truncated stream,
// a request given up on, anything else.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTruncatedStream):
		return "truncated"
	case outcome(err) == "canceled":
		return "canceled"
	}
	return "error"
}

// settled waits for the client to have counted want requests under op and
// outcome.
func settled(t *testing.T, tel *telemetry.Telemetry, op, outcome string, want float64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); tel.ClientRequests.Value(op, outcome) != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("requests{%s,%s} = %v, want %v", op, outcome, tel.ClientRequests.Value(op, outcome), want)
		}
	}
}

// hopStep is one exchange of the differential script: the daemon's reply,
// what the client does, and what must hold of the connections.
type hopStep struct {
	name  string
	reply rawReply
	do    func(t *testing.T, c *Client, tel *telemetry.Telemetry) string
	// fresh: the request arrives on a connection no earlier one used.
	fresh bool
	// hangUp: the client closes the request's connection.
	hangUp bool
	// idleClosed, when set, is closed once the client closed the
	// connection the daemon hung up on after the reply.
	idleClosed chan struct{}
}

var hopReq = llm.ChunkRequest{Model: "m", Prompt: "Are bats blind?", MaxTokens: 8}

func chunkResult(ch llm.Chunk, err error) string {
	return fmt.Sprintf("%+v %s %v", ch, errClass(err), err)
}

func hopScript() []hopStep {
	drainFrom := func(open func(*Client) (llm.ChunkStream, error), oks float64) func(*testing.T, *Client, *telemetry.Telemetry) string {
		return func(t *testing.T, c *Client, tel *telemetry.Telemetry) string {
			st, err := open(c)
			if err != nil {
				return chunkResult(llm.Chunk{}, err)
			}
			defer st.Close()
			// Each Next reads only until it holds its token, so the slices do
			// not depend on how the lines' arrival interleaves with the drains.
			var out []string
			for {
				ch, err := st.Next(context.Background(), 1)
				out = append(out, chunkResult(ch, err))
				if err != nil || ch.Done {
					break
				}
			}
			settled(t, tel, "generate_stream", "ok", oks)
			return strings.Join(out, " | ")
		}
	}
	drain := drainFrom(func(c *Client) (llm.ChunkStream, error) { return c.OpenStream(context.Background(), hopReq) }, 1)
	// A session whose request carries a traceparent, one fixed so that both
	// transports' bytes can be compared.
	traced := drainFrom(func(c *Client) (llm.ChunkStream, error) {
		wire := GenerateRequest{Model: hopReq.Model, Prompt: hopReq.Prompt}
		wire.Options.NumPredict, wire.Options.StreamTokens = hopReq.MaxTokens, true
		msg := requestBufPool.Get().(*requestBuf)
		msg.encode(&wire)
		lr := lineReaderPool.Get().(*lineReader)
		lr.req = msg
		if err := c.route.exchange(context.Background(), msg, "00-"+testTraceID+"-0123456789abcdef-01", lr); err != nil {
			return nil, err
		}
		return newClientStream(c, hopReq, lr, time.Now(), 64), nil
	}, 2)
	generate := func(model string) func(*testing.T, *Client, *telemetry.Telemetry) string {
		return func(_ *testing.T, c *Client, _ *telemetry.Telemetry) string {
			req := hopReq
			req.Model = model
			return chunkResult(c.GenerateChunk(context.Background(), req))
		}
	}
	idleClosed := make(chan struct{})
	return []hopStep{
		{name: "stream", fresh: true, do: drain,
			reply: reply(false, ndjsonHead, chunk(lineHel), chunk(lineLo), chunk(lineDone), "0\r\n\r\n")},
		{name: "stream with a traceparent", do: traced,
			reply: reply(false, ndjsonHead, chunk(lineHel), chunk(lineLo), chunk(lineDone), "0\r\n\r\n")},
		{name: "stream:false", do: generate("m"),
			reply: reply(false, jsonReply("200 OK", lineDone+"\n", ""))},
		{name: "404", do: generate("ghost"),
			reply: reply(false, jsonReply("404 Not Found", `{"error":"model \"ghost\" not found"}`, ""))},
		{name: "Connection: close", hangUp: true, do: generate("m"),
			reply: reply(false, jsonReply("200 OK", lineDone+"\n", "Connection: close\r\n"))},
		{name: "idle then closed by the daemon", fresh: true, do: generate("m"), idleClosed: idleClosed,
			reply: func(c *net.TCPConn) bool {
				reply(false, jsonReply("200 OK", lineDone+"\n", ""))(c)
				// Half-closed, so that the client's own close shows; what it
				// sends before it finds out is never read as a request.
				c.CloseWrite()
				io.Copy(io.Discard, c)
				close(idleClosed)
				return true
			}},
		{name: "after the idle close", fresh: true, do: generate("m"),
			reply: reply(false, jsonReply("200 OK", lineDone+"\n", ""))},
		{name: "cancel mid-stream", hangUp: true,
			reply: reply(false, ndjsonHead, chunk(lineHel)),
			do: func(t *testing.T, c *Client, tel *telemetry.Telemetry) string {
				st, err := c.OpenStream(context.Background(), hopReq)
				if err != nil {
					return chunkResult(llm.Chunk{}, err)
				}
				first := chunkResult(st.Next(context.Background(), 1))
				st.Close()
				settled(t, tel, "generate_stream", "canceled", 1)
				return first
			}},
		{name: "truncated chunked body", fresh: true, hangUp: true, do: generate("m"),
			reply: func(c *net.TCPConn) bool {
				reply(false, ndjsonHead, chunk(lineHel))(c)
				c.CloseWrite()
				return false
			}},
		{name: "a bad line mid-stream", fresh: true, hangUp: true, do: generate("m"),
			reply: reply(false, ndjsonHead, chunk(`{"model":`))},
		{name: "after the bad line", fresh: true, do: generate("m"),
			reply: reply(false, jsonReply("200 OK", lineDone+"\n", ""))},
	}
}

// TestHopTransportMatchesReference holds the client's two routes to each
// other over one script of daemon behaviours: hopRoute over a fresh hop
// transport, and roundTripRoute over net/http's transport, the reference.
// The script is a stream to its done line, without a traceparent and with
// one, a stream:false reply, a 404 JSON error, a reply saying
// Connection: close, a connection the daemon closes while it is idle, a
// session canceled mid-stream, a chunked body cut short and a stream the
// client gives up on at a bad line; then a full-duplex session stopped
// after its first token, held to net/http writing the same body from a
// pipe. The daemon must receive the same
// bytes on the same connections from both, so the hop's are held to what
// net/http writes for the http.Request the other route builds, and the
// client must come to the same results, errors and counts. A connection
// whose reply said Connection: close, was canceled, was cut short or was
// left mid-body is closed by the client and never used again, on either
// route.
func TestHopTransportMatchesReference(t *testing.T) {
	d := newRawDaemon(t)
	type run struct {
		results []string
		seen    []rawRequest
		counts  string
	}
	var runs []run
	for _, route := range []string{"reference", "hop"} {
		d.reset()
		tel := telemetry.New(telemetry.Options{})
		c := hopClient(d.url, newHopTransport(), WithTelemetry(tel))
		if route == "reference" {
			c = New(d.url, WithHTTPClient(&http.Client{Transport: referenceTransport()}), WithTelemetry(tel))
		}
		var r run
		used := map[int]bool{}
		for _, st := range hopScript() {
			d.replies <- st.reply
			r.results = append(r.results, st.name+": "+st.do(t, c, tel))
			conn := d.lastConn()
			if st.fresh && used[conn] {
				t.Fatalf("%s: %s: the request came on connection %d, used before", route, st.name, conn)
			}
			if !st.fresh && !used[conn] {
				t.Fatalf("%s: %s: the request came on connection %d, want an idle one reused", route, st.name, conn)
			}
			used[conn] = true
			if st.hangUp {
				d.awaitHangUp(t, conn)
			}
			// net/http's transport reads its idle connections, so it closes
			// this one once the daemon's FIN arrives; the hop's holds no
			// reader, finds out at the connection's next use and redials.
			if st.idleClosed != nil && route == "reference" {
				select {
				case <-st.idleClosed:
				case <-time.After(5 * time.Second):
					t.Fatalf("reference: %s: the client kept connection %d open", st.name, conn)
				}
			}
		}
		for _, op := range []string{"generate", "generate_stream"} {
			for _, oc := range []string{"ok", "error", "canceled"} {
				r.counts += fmt.Sprintf("%s/%s=%v ", op, oc, tel.ClientRequests.Value(op, oc))
			}
		}
		r.counts += fmt.Sprintf("truncated=%v", tel.ClientTruncated.Value("m"))

		// The full-duplex step, on the connection the last step left idle:
		// a session closed after its first token stops the daemon in band.
		// The reference is net/http sending the body from a pipe, the stop
		// line and the body's end written to it at close, and reading the
		// reply to its end.
		d.bodied <- [2]string{ndjsonHead + chunk(lineHel), chunk(lineDone) + "0\r\n\r\n"}
		var first string
		if route == "reference" {
			first = referenceDuplex(t, c)
		} else {
			c.stops.Store(stopsYes)
			st, err := c.OpenStream(context.Background(), hopReq)
			if err != nil {
				t.Fatal(err)
			}
			first = chunkResult(st.Next(context.Background(), 1))
			st.Close()
			awaitTails(t, c.route.(*hopRoute).t)
		}
		r.results = append(r.results, "full duplex: "+first)
		if conn := d.lastConn(); !used[conn] {
			t.Fatalf("%s: full duplex: the request came on connection %d, want an idle one reused", route, conn)
		}

		d.mu.Lock()
		// Connections numbered from the run's first.
		for _, req := range d.seen {
			req.conn -= d.seen[0].conn - 1
			r.seen = append(r.seen, req)
		}
		d.mu.Unlock()
		runs = append(runs, r)
	}
	ref, hop := runs[0], runs[1]
	for i := range ref.results {
		if ref.results[i] != hop.results[i] {
			t.Errorf("step %d:\nreference %s\nhop       %s", i, ref.results[i], hop.results[i])
		}
	}
	if len(ref.seen) != len(hop.seen) {
		t.Fatalf("the daemon saw %d requests from the reference, %d from the hop transport", len(ref.seen), len(hop.seen))
	}
	for i := range ref.seen {
		if ref.seen[i] != hop.seen[i] {
			t.Errorf("request %d:\nreference %+q\nhop       %+q", i, ref.seen[i], hop.seen[i])
		}
	}
	if strings.Contains(hop.seen[0].bytes, "Traceparent") || !strings.Contains(hop.seen[1].bytes, "\r\nTraceparent: 00-") {
		t.Fatalf("the first two sessions' requests: %+q; want the second alone to carry a traceparent", hop.seen[:2])
	}
	if last := hop.seen[len(hop.seen)-1].bytes; !strings.Contains(last, "\r\nTransfer-Encoding: chunked\r\n") || !strings.HasSuffix(last, string(stopChunk)) {
		t.Fatalf("the full-duplex request: %+q; want a chunked body ending in the stop line and the body's end", last)
	}
	if ref.counts != hop.counts {
		t.Errorf("counts:\nreference %s\nhop       %s", ref.counts, hop.counts)
	}
}

// referenceDuplex is the full-duplex step over net/http, c's transport: a
// session's request whose chunked body comes from a pipe, its first token,
// then the stop line and the body's end, and the reply read to its end.
func referenceDuplex(t *testing.T, c *Client) string {
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, c.base+"/api/generate", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header = http.Header{"Content-Type": jsonContentType, "User-Agent": noUserAgent}
	wire := GenerateRequest{Model: hopReq.Model, Prompt: hopReq.Prompt}
	wire.Options.NumPredict, wire.Options.StreamTokens = hopReq.MaxTokens, true
	msg := requestBufPool.Get().(*requestBuf)
	msg.encode(&wire)
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		pw.Write(append(slices.Clone(msg.body), '\n'))
	}()
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	st := c.streamReply(hopReq, resp, msg, nil, func() {})
	first := chunkResult(st.Next(context.Background(), 1))
	<-wrote // the generate object has been sent, before the stop line
	pw.Write([]byte(stopLine + "\n"))
	pw.Close()
	if ch, err := st.Next(context.Background(), 0); err != nil || !ch.Done {
		t.Fatalf("reference: after the stop: %+v, %v; want the done line", ch, err)
	}
	st.Close()
	return first
}

// TestStaleIdleConnectionIsRedialled: a generation request on an idle
// connection the daemon has since closed is sent once more on a fresh one
// and succeeds; a reused connection that breaks after a byte of the reply
// arrived is not resent, since the daemon may have acted on it.
func TestStaleIdleConnectionIsRedialled(t *testing.T) {
	d := newRawDaemon(t)
	tr := newHopTransport()
	dials := countDials(tr)
	c := hopClient(d.url, tr)
	generate := func(r rawReply) error {
		d.replies <- r
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := c.GenerateChunk(ctx, hopReq)
		return err
	}
	if err := generate(reply(true, jsonReply("200 OK", lineDone+"\n", ""))); err != nil {
		t.Fatal(err)
	}
	if err := generate(reply(false, jsonReply("200 OK", lineDone+"\n", ""))); err != nil {
		t.Fatalf("a request on a connection the daemon closed while idle: %v", err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dialed %d connections, want 2", n)
	}
	if err := generate(reply(true, "HTTP/1.1 200 OK\r\n")); err == nil {
		t.Fatal("a reply cut short after its status line succeeded")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.seen) != 3 || d.seen[2].conn != 2 {
		t.Fatalf("the daemon saw %+v, want three requests, the last on connection 2 and none resent", d.seen)
	}
}

// TestRedialledConnectionReadsNothingOfTheOld: a connection closed with
// bytes still in its read buffer — a reply that said Connection: close,
// and more after it — puts the buffer back in the pool emptied, and the
// connection dialled next reads its own reply, not a byte of the old one.
func TestRedialledConnectionReadsNothingOfTheOld(t *testing.T) {
	d := newRawDaemon(t)
	tr := newHopTransport()
	dials := countDials(tr)
	c := hopClient(d.url, tr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.replies <- reply(false, jsonReply("200 OK", lineDone+"\n", "Connection: close\r\n")+
		jsonReply("404 Not Found", `{"error":"a byte of the old connection"}`, ""))
	if _, err := c.GenerateChunk(ctx, hopReq); err != nil {
		t.Fatal(err)
	}
	d.awaitHangUp(t, d.lastConn())
	br := brPool.Get().(*bufio.Reader)
	if n := br.Buffered(); n != 0 {
		t.Fatalf("the pool holds a read buffer with %d bytes in it", n)
	}
	brPool.Put(br)
	d.replies <- reply(false, jsonReply("200 OK", lineDone+"\n", ""))
	if ch, err := c.GenerateChunk(ctx, hopReq); err != nil || !ch.Done {
		t.Fatalf("on the redialled connection: %+v, %v", ch, err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dialed %d connections, want 2", n)
	}
}

// daemonReplies returns what a real daemon answers, byte for byte, to a
// session, a stream:false call, a call for a model it does not serve and
// a request for /api/tags.
func daemonReplies(tb testing.TB) [][]byte {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	defer engine.Close()
	srv := httptest.NewServer(NewServer(engine))
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	post := func(body string) string {
		return fmt.Sprintf("POST /api/generate HTTP/1.1\r\nHost: modeld\r\nContent-Length: %d\r\nContent-Type: application/json\r\n\r\n%s", len(body), body)
	}
	var rec bytes.Buffer
	br := bufio.NewReader(io.TeeReader(conn, &rec))
	var out [][]byte
	for _, req := range []string{
		post(`{"model":"mistral:7b","prompt":"Are bats blind?","options":{"num_predict":8,"stream_tokens":true}}`),
		post(`{"model":"mistral:7b","prompt":"Are bats blind?","stream":false,"options":{"num_predict":8}}`),
		post(`{"model":"ghost:1b","prompt":"Are bats blind?"}`),
		"GET /api/tags HTTP/1.1\r\nHost: modeld\r\n\r\n",
	} {
		if _, err := io.WriteString(conn, req); err != nil {
			tb.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			tb.Fatal(err)
		}
		resp.Body.Close()
		out = append(out, bytes.Clone(rec.Next(rec.Len()-br.Buffered())))
	}
	return out
}

// fuzzDeadline bounds one fuzzed exchange.
const fuzzDeadline = 10 * time.Millisecond

// FuzzHopResponse answers a generation request through the hop transport's
// exchange with arbitrary bytes — a daemon that then hangs up, or one that holds the
// connection open — seeded with a real daemon's replies; the request has a
// Content-Length, or is a full-duplex one whose chunked body the client
// ends once it has the reply's head. The transport
// must not panic, must return by the request's deadline, and may pool the
// connection only after a reply whose body ended cleanly: one net/http
// reads off the same bytes to its end without an error or a
// Connection: close, and whose body it reads the same.
func FuzzHopResponse(f *testing.F) {
	for _, r := range daemonReplies(f) {
		for _, duplex := range []bool{false, true} {
			f.Add(r, false, duplex)
			f.Add(r, true, duplex)
		}
	}
	f.Fuzz(func(t *testing.T, reply []byte, hold, duplex bool) {
		ctx, cancel := context.WithTimeout(context.Background(), fuzzDeadline)
		defer cancel()
		tr := newHopTransport()
		var daemons sync.WaitGroup
		tr.dial = func(context.Context, string, string) (net.Conn, error) {
			client, server := net.Pipe()
			daemons.Add(1)
			go func() {
				defer daemons.Done()
				defer server.Close()
				br := bufio.NewReader(server)
				req, err := http.ReadRequest(br)
				if err != nil {
					return
				}
				bodyRead := make(chan struct{})
				if duplex {
					// The body ends once the client has the reply's head.
					daemons.Add(1)
					go func() {
						defer daemons.Done()
						io.Copy(io.Discard, req.Body)
						close(bodyRead)
					}()
				} else {
					io.Copy(io.Discard, req.Body)
					close(bodyRead)
				}
				if _, err := server.Write(reply); err != nil || !hold {
					return
				}
				// A pipe's Write returns once the client has read every
				// byte: a daemon that holds the connection has nothing more
				// to send, so the caller gives up now rather than at the
				// deadline.
				cancel()
				<-bodyRead
				io.Copy(io.Discard, br) // until the client closes
			}()
			return client, nil
		}
		defer func() {
			tr.mu.Lock()
			for _, idle := range tr.idle {
				for _, pc := range idle {
					pc.timer.Stop()
					pc.conn.Close()
				}
			}
			tr.mu.Unlock()
			daemons.Wait()
		}()

		const body = `{"model":"m","prompt":"q","options":{"num_predict":8,"stream_tokens":true}}`
		msg := fmt.Sprintf("POST /api/generate HTTP/1.1\r\nHost: modeld\r\nContent-Length: %d\r\nContent-Type: application/json\r\n\r\n%s", len(body), body)
		if duplex {
			msg = fmt.Sprintf("POST /api/generate HTTP/1.1\r\nHost: modeld\r\nTransfer-Encoding: chunked\r\nContent-Type: application/json\r\n\r\n%x\r\n%s\n\r\n", len(body)+1, body)
		}
		start := time.Now()
		var got []byte
		b := new(hopBody)
		err := tr.exchange(ctx, "modeld:80", []byte(msg), b)
		if err == nil {
			// A full-duplex request's body ends as the client reads the done
			// line, here at once.
			b.duplex, b.open = duplex, duplex
			b.endRequest(false)
			got, err = io.ReadAll(b)
			b.Close()
		}
		if took := time.Since(start); took > fuzzDeadline+time.Second {
			t.Fatalf("the exchange took %v past a %v deadline", took, fuzzDeadline)
		}
		tr.mu.Lock()
		pooled := len(tr.idle["modeld:80"])
		tr.mu.Unlock()
		if pooled == 0 {
			return
		}
		if err != nil || b.close {
			t.Fatalf("pooled the connection after a reply that ended with %v (Connection: close %v)", err, b.close)
		}
		ref, rerr := http.ReadResponse(bufio.NewReader(bytes.NewReader(reply)), &http.Request{Method: http.MethodPost})
		if rerr != nil {
			t.Fatalf("pooled the connection after a reply net/http does not read: %v", rerr)
		}
		want, rerr := io.ReadAll(ref.Body)
		if rerr != nil || ref.Close || !bytes.Equal(got, want) {
			t.Fatalf("pooled the connection after a body read as %q; net/http reads %q, %v (Connection: close %v)",
				got, want, rerr, ref.Close)
		}
	})
}

// bytesReader is a reply's bytes as a connection's buffer reads them; left
// is what it has not consumed.
type bytesReader struct {
	*bufio.Reader
	src *bytes.Reader
}

func newBytesReader(b []byte) bytesReader {
	src := bytes.NewReader(b)
	return bytesReader{bufio.NewReader(src), src}
}

func (r bytesReader) left() int { return r.Buffered() + r.src.Len() }

// FuzzHopHead holds the hop's in-place head parse to http.ReadResponse,
// its reference, over arbitrary reply bytes seeded with a real daemon's
// replies. Where parseHead takes a head, the reference must read it too,
// to the same status, framing and keep-alive, and the body read to
// its end through either framing must be the same bytes, end the same way
// and leave the same bytes unread. Where it declines, it must have
// consumed nothing, so the fallback reads what the reference reads.
func FuzzHopHead(f *testing.F) {
	for _, r := range daemonReplies(f) {
		f.Add(r)
	}
	const tagsBody = `{"models":[{"name":"m","model":"m","size":1}]}`
	f.Add([]byte(ndjsonHead + chunk(lineHel) + "0\r\nX-Trailer: 1\r\n\r\n"))
	f.Add([]byte(jsonReply("200 OK", tagsBody, "Connection: close\r\nDate: Mon, 19 Oct 2026 06:00:00 GMT\r\n")))
	f.Add([]byte(jsonReply("503 Service Unavailable", tagsBody, "Connection: keep-alive\r\n") + "HTTP/1.1 200 OK\r\n"))
	f.Fuzz(func(t *testing.T, reply []byte) {
		req, err := http.NewRequest(http.MethodPost, "http://modeld/api/generate", nil)
		if err != nil {
			t.Fatal(err)
		}
		hop, ref := newBytesReader(reply), newBytesReader(reply)
		want, werr := http.ReadResponse(ref.Reader, req)
		b := new(hopBody)
		n := b.parseHead(hop.Reader)
		if n == 0 {
			if hop.left() != len(reply) {
				t.Fatalf("declined after consuming %d bytes", len(reply)-hop.left())
			}
			got, gerr := http.ReadResponse(hop.Reader, req)
			if (gerr == nil) != (werr == nil) || (gerr == nil && (got.Status != want.Status || got.ContentLength != want.ContentLength)) {
				t.Fatalf("the fallback read %+v, %v; the reference %+v, %v", got, gerr, want, werr)
			}
			return
		}
		if werr != nil {
			t.Fatalf("took a head net/http refuses: %v", werr)
		}
		length := b.n
		if b.chunked {
			length = -1
		}
		if b.code != want.StatusCode || b.status != want.Status || length != want.ContentLength ||
			b.chunked != slices.Equal(want.TransferEncoding, []string{"chunked"}) || b.close != want.Close {
			t.Fatalf("read %d %q, length %d, chunked %v, close %v; net/http %d %q, length %d, %v, close %v",
				b.code, b.status, length, b.chunked, b.close,
				want.StatusCode, want.Status, want.ContentLength, want.TransferEncoding, want.Close)
		}
		hop.Discard(n)
		saved := *b
		b.pc = &hopConn{br: hop.Reader}
		body, berr := io.ReadAll(readerFunc(b.read))
		wantBody, wberr := io.ReadAll(want.Body)
		if !bytes.Equal(body, wantBody) || (berr == nil) != (wberr == nil) || hop.left() != ref.left() {
			t.Fatalf("body %q, %v, %d bytes left; net/http %q, %v, %d left", body, berr, hop.left(), wantBody, wberr, ref.left())
		}
		// The same body over a connection that reads without waiting, its
		// bytes arriving a few at a time: a read that would wait gives
		// back nothing it took, so the body reads the same.
		b = &saved
		b.pc = &hopConn{br: bufio.NewReader(&trickle{b: reply[n:], step: 1 + len(reply)%7}), noWait: true}
		var trickled []byte
		buf := make([]byte, 5)
		for {
			k, err := b.read(buf)
			trickled = append(trickled, buf[:k]...)
			if err == errWouldBlock {
				continue
			}
			if err != nil {
				if !bytes.Equal(trickled, wantBody) || (err == io.EOF) != (wberr == nil) {
					t.Fatalf("trickled body %q, %v; net/http %q, %v", trickled, err, wantBody, wberr)
				}
				break
			}
		}
	})
}

// trickle is a connection read without waiting whose bytes arrive step
// at a time: each read that took some is followed by one that would wait,
// until the end, which every read then reports.
type trickle struct {
	b       []byte
	step    int
	arrived bool
}

func (r *trickle) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	if r.arrived = !r.arrived; !r.arrived {
		return 0, errWouldBlock
	}
	n := copy(p[:min(len(p), r.step)], r.b)
	r.b = r.b[n:]
	return n, nil
}

// readerFunc is a Read method as an io.Reader.
type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestDrainDeadlineIsAReadDeadline: over the hop's own connection a
// drain's deadline bounds its read as the connection's read deadline. A
// daemon that stalls mid-answer ends the drain there — the token held
// handed out first, then the session ended on context.DeadlineExceeded,
// counted canceled, its connection closed — and a connection that went
// back to the pool keeps no deadline from the drain that read it.
func TestDrainDeadlineIsAReadDeadline(t *testing.T) {
	d := newRawDaemon(t)
	tr := newHopTransport()
	dials := countDials(tr)
	tel := telemetry.New(telemetry.Options{})
	c := hopClient(d.url, tr, WithTelemetry(tel))
	const deadline = 50 * time.Millisecond
	for i := 0; i < 2; i++ {
		d.replies <- reply(false, ndjsonHead+chunk(lineHel)+chunk(lineLo)+chunk(lineDone)+"0\r\n\r\n")
		open, stop := context.WithTimeout(context.Background(), 5*time.Second)
		st, err := c.OpenStream(open, hopReq)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		ch, err := st.Next(ctx, 0)
		cancel()
		st.Close()
		stop()
		if err != nil || ch.Text != "Hello" || !ch.Done {
			t.Fatalf("session %d: %+v, %v; want the whole answer", i, ch, err)
		}
		time.Sleep(2 * deadline) // past the drain's deadline, before the connection's next use
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("two sessions dialed %d connections, want 1", n)
	}

	d.replies <- reply(false, ndjsonHead, chunk(lineHel))
	st, err := c.OpenStream(context.Background(), hopReq)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if ch, err := st.Next(ctx, 2); err != nil || ch.Text != "Hel" || ch.Done {
		t.Fatalf("stalled: first slice = %+v, %v; want the token held", ch, err)
	}
	if _, err := st.Next(context.Background(), 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("after the deadline: %v, want the session ended on context.DeadlineExceeded", err)
	}
	d.awaitHangUp(t, d.lastConn())
	settled(t, tel, "generate_stream", "canceled", 1)
}
