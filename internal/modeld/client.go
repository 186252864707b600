package modeld

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"llmms/internal/llm"
	"llmms/internal/telemetry"
)

// ErrTruncatedStream reports that a generation stream ended before the
// daemon sent its final Done:true line — the connection dropped or the
// daemon died mid-answer. The accumulated partial chunk is returned
// alongside it so callers can decide whether to retry or salvage.
var ErrTruncatedStream = errors.New("modeld: generation stream truncated before done")

// Client speaks the daemon protocol from Go. It satisfies the
// orchestrator's Backend interface, so the core algorithms run unchanged
// against a remote daemon. It generates two ways, both over
// /api/generate with the stream_tokens extension and both read by one
// NDJSON reader (lineReader) on the caller's goroutine: GenerateChunk, one
// request per chunk, and OpenStream, one request per session.
type Client struct {
	base string
	tel  *telemetry.Telemetry
	// rt is WithHTTPClient's transport, nil for the hop's own.
	rt http.RoundTripper
	// route carries generation requests, chosen by New from rt;
	// routeErr, why there is none, is each generation call's error.
	route    exchanger
	routeErr error
	// stops is whether a session's request goes full duplex, so that Close
	// stops the daemon with stopLine rather than hanging up: learned from
	// the daemon's /api/version on the first OpenStream (under learn) over
	// the hop's own route, and never over another.
	stops atomic.Int32
	learn sync.Mutex
}

// Client.stops: not yet learned, no, yes.
const (
	stopsUnknown int32 = iota
	stopsNo
	stopsYes
)

// defaultTransport is the hop transport shared by every client New builds
// without WithHTTPClient, built once. net/http's default transport keeps
// at most 2 idle connections per host (DefaultMaxIdleConnsPerHost), so an
// orchestrator fanning one stream per model out to a single daemon would
// reconnect — TCP handshake and slow-start — on every session beyond the
// second model. hopTransport keeps an idle connection per concurrent model
// stream, so steady-state sessions reuse warm connections, and writes and
// reads each request on its caller's goroutine. It speaks plain http
// only, and reads no proxy variables: a daemon behind TLS or a proxy is
// reached through WithHTTPClient.
var defaultTransport = sync.OnceValue(newHopTransport)

// Option configures a Client at construction; see New. A Client is fully
// configured before its first request, so no caller can observe a
// half-configured client and new knobs don't widen the constructor
// signature.
type Option func(*Client)

// WithHTTPClient sends the client's requests through hc.Transport, or
// http.DefaultTransport when it is nil, instead of the package's shared
// hop transport (see defaultTransport): a daemon reached over https or
// through a proxy needs one, since the default speaks plain http only and
// reads no proxy variables. A nil hc keeps the default. The transport is
// handed an http.Request for each generation request; only the hop's own
// transport writes them and parses their replies' heads itself.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.rt = cmp.Or[http.RoundTripper](hc.Transport, http.DefaultTransport)
		}
	}
}

// WithTelemetry attaches a telemetry bundle: every daemon request is
// then counted in modeld_client_requests_total{op,outcome} and timed in
// modeld_client_request_duration_seconds{op}, with per-model chunk
// latency (modeld_client_chunk_duration_seconds{model}) on the
// GenerateChunk path and truncated streams
// (modeld_client_truncated_streams_total{model}) on both generation
// paths. A nil bundle leaves the client uninstrumented.
//
// Label cardinality is bounded by construction: op is generate or
// generate_stream, outcome is ok/error/canceled, and model is the
// configured model name. Query text, prompts, and session IDs never
// become labels — they are unbounded and would explode the series space
// (the registry's series cap would collapse them into "_other", losing
// the per-model signal too).
func WithTelemetry(tel *telemetry.Telemetry) Option {
	return func(c *Client) { c.tel = tel }
}

// New returns a client for a daemon at base (e.g.
// "http://127.0.0.1:11434"), configured by options. With no options the
// client uses the package's shared hop transport, which speaks plain http
// only and reads no proxy variables, and no telemetry. A request's
// deadline is its caller's context's: the orchestrator bounds every drain
// that may wait.
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/")}
	for _, opt := range opts {
		opt(c)
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/api/generate", nil)
	c.stops.Store(stopsNo)
	switch {
	case err != nil:
		c.routeErr = err
	case c.rt != nil:
		c.route = &roundTripRoute{rt: c.rt, req: req}
	case req.URL.Scheme != "http":
		c.routeErr = fmt.Errorf("%w (got %s)", errNotHTTP, req.URL.Scheme)
	default:
		host := "HTTP/1.1\r\nHost: " + cmp.Or(req.Host, req.URL.Host) + "\r\n"
		version := *req.URL
		version.Path, version.RawPath = strings.TrimSuffix(req.URL.Path, "generate")+"version", ""
		c.route = &hopRoute{t: defaultTransport(), addr: hostPort(req.URL),
			prefix: "POST " + req.URL.RequestURI() + " " + host, version: "GET " + version.RequestURI() + " " + host + "\r\n"}
		c.stops.Store(stopsUnknown)
	}
	return c
}

// takesStop reports whether a session's request goes full duplex, asking
// the daemon once: a client learns it on its first OpenStream, and asks
// again only after a request for it failed.
func (c *Client) takesStop(ctx context.Context) bool {
	if s := c.stops.Load(); s != stopsUnknown {
		return s == stopsYes
	}
	c.learn.Lock()
	defer c.learn.Unlock()
	if s := c.stops.Load(); s != stopsUnknown {
		return s == stopsYes
	}
	ok, dials, err := c.route.(*hopRoute).takesStop(ctx)
	c.countDials(dials)
	if err != nil {
		return false
	}
	c.stops.Store(stopsNo)
	if ok {
		c.stops.Store(stopsYes)
	}
	return ok
}

// countDials counts connections the client's requests dialled.
func (c *Client) countDials(n int) {
	if n > 0 && c.tel != nil {
		c.tel.ClientDials.Add(float64(n))
	}
}

// observe records one daemon request's latency and outcome under op.
func (c *Client) observe(op string, start time.Time, err error) {
	if c.tel == nil {
		return
	}
	c.tel.ClientRequests.Inc(op, outcome(err))
	c.tel.ClientLatency.Observe(time.Since(start).Seconds(), op)
}

// outcome is err as the bounded outcome label: ok, error or canceled.
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, llm.ErrStreamClosed):
		return "canceled"
	}
	return "error"
}

func decodeError(status string, body io.Reader) error {
	var eb errorBody
	if err := json.NewDecoder(body).Decode(&eb); err == nil && eb.Error != "" {
		return fmt.Errorf("modeld: %s: %s", status, eb.Error)
	}
	return fmt.Errorf("modeld: %s", status)
}

// Header values shared by every generation request and daemon reply, read
// only; an empty User-Agent keeps the transport from sending its own.
var jsonContentType, ndjsonContentType, noUserAgent = []string{"application/json"}, []string{"application/x-ndjson"}, []string{""}

// exchanger carries a client's generation requests: exchange sends one
// whose body msg holds, with traceparent unless empty, and reads the head
// of its reply into lr, which then reads the body; a status other than 200
// is an error. hopRoute is the hop's own transport, roundTripRoute any other.
type exchanger interface {
	exchange(ctx context.Context, msg *requestBuf, traceparent string, lr *lineReader) error
}

// roundTripRoute hands rt a copy of req, the POST New built, per request:
// straight to the transport, since ctx bounds it and the daemon neither
// redirects nor sets cookies, under a context of its own that a session
// can cancel (clientStream.abort).
type roundTripRoute struct {
	rt  http.RoundTripper
	req *http.Request
}

func (r *roundTripRoute) exchange(ctx context.Context, msg *requestBuf, traceparent string, lr *lineReader) error {
	ctx, cancel := context.WithCancel(ctx)
	data := msg.body
	req := r.req.WithContext(ctx)
	req.Header = http.Header{"Content-Type": jsonContentType, "User-Agent": noUserAgent}
	if traceparent != "" {
		req.Header["Traceparent"] = []string{traceparent}
	}
	req.ContentLength = int64(len(data))
	req.Body = io.NopCloser(bytes.NewReader(data))
	// GetBody lets the transport replay the request when a kept-alive
	// connection turns out to have been closed under it.
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }
	resp, err := r.rt.RoundTrip(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = decodeError(resp.Status, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		cancel()
		return err
	}
	lr.body, lr.ctx, lr.cancel = resp.Body, ctx, cancel
	return nil
}

// send POSTs req through the client's route, with sp's traceparent, and
// returns the reply's reader, which releases the pooled body once the reply
// ends; a failed call leaves it to the collector, since a transport other
// than the hop's may still be sending it.
func (c *Client) send(ctx context.Context, req *GenerateRequest, sp *telemetry.Span) (*lineReader, error) {
	return c.sendAs(ctx, req, sp, false)
}

// sendAs is send, as a full-duplex request when duplex is set.
func (c *Client) sendAs(ctx context.Context, req *GenerateRequest, sp *telemetry.Span, duplex bool) (*lineReader, error) {
	if c.routeErr != nil {
		return nil, c.routeErr
	}
	msg := requestBufPool.Get().(*requestBuf)
	msg.encode(req)
	msg.duplex = duplex
	lr := lineReaderPool.Get().(*lineReader)
	lr.req, lr.sp = msg, sp
	err := c.route.exchange(ctx, msg, sp.Traceparent(), lr)
	c.countDials(lr.hop.dials)
	if err != nil {
		lr.release()
		return nil, err
	}
	return lr, nil
}

// maxScanLine bounds one NDJSON stream line; the reader's buffer grows
// toward it only for pathological lines. The daemon reads request bodies
// through the same bound.
const maxScanLine = 8 * 1024 * 1024

// lineReader is the client's one NDJSON reader. On its caller's goroutine
// it reads the body of an /api/generate reply into pooled storage and
// decodes it a line at a time — the scanner of wire.go first,
// encoding/json for a line it declines — grafting the done line's span
// records into sp. After the done line the body is only read to its end,
// so the connection can be reused. Once the body ended it is closed and
// err set: nil after a done line; a bad line at once; the read error of a
// request whose context ended; llm.ErrStreamClosed once what had arrived
// ran out (reachArrived); else ErrTruncatedStream, wrapping the read error
// when the body broke.
type lineReader struct {
	line streamLine // the line next decoded
	buf  []byte     // the body's unread bytes are buf[r:w]; 4 KiB until a line needs more
	r, w int
	text []byte // a session's undrained tokens (clientStream): their bytes
	ends []int  // and where in text each ends
	// The reply's body (hop over the hop's own transport), and the request's
	// context and cancel.
	body   io.ReadCloser
	hop    hopBody
	ctx    context.Context
	cancel context.CancelFunc
	req    *requestBuf
	sp     *telemetry.Span
	done   bool  // the done line was decoded
	rerr   error // the body's read error, once it had one
	ended  bool
	err    error
	// stopped: the reply was let go of with the stop line (hopBody.owe).
	stopped bool
}

var lineReaderPool = sync.Pool{New: func() any { return &lineReader{buf: make([]byte, 4<<10)} }}

// reach is how far lineReader.next may read for a line: only what the
// reader holds, also what has arrived without waiting (the body ends
// there), or also what the daemon is still to send.
type reach int

const (
	reachHeld reach = iota
	reachArrived
	reachDaemon
)

// release returns a reader to the pool, unless a line grew it past
// maxPooledBody.
func (lr *lineReader) release() {
	if len(lr.buf) <= maxPooledBody {
		*lr = lineReader{line: lr.line, buf: lr.buf, text: lr.text[:0], ends: lr.ends[:0]}
		lineReaderPool.Put(lr)
	}
}

// next decodes the body's next line into lr.line, reading as far as to
// allows. It reports false once the body has ended, and when no whole
// line is held and to is reachHeld.
func (lr *lineReader) next(to reach) bool {
	for !lr.ended {
		rest := lr.buf[lr.r:lr.w]
		i := bytes.IndexByte(rest, '\n')
		switch {
		case i >= 0:
			lr.r += i + 1
		case lr.rerr != nil && len(rest) > 0 && !errors.Is(lr.rerr, errWouldBlock):
			i, lr.r = len(rest), lr.w // the last line, without its newline
		case lr.rerr != nil:
			lr.end(lr.outcome())
			return false
		case to == reachHeld:
			return false
		default:
			lr.fill(to)
			continue
		}
		line := bytes.TrimSpace(rest[:i])
		if len(line) == 0 || lr.done {
			continue
		}
		if err := lr.decode(line); err != nil {
			lr.end(err)
			return false
		}
		return true
	}
	return false
}

// fill reads the body once into the free end of buf, first moving the
// unread bytes to its front and, for a line longer than buf, doubling it
// up to maxScanLine.
func (lr *lineReader) fill(to reach) {
	lr.w, lr.r = copy(lr.buf, lr.buf[lr.r:lr.w]), 0
	if lr.w == len(lr.buf) {
		if lr.w >= maxScanLine {
			lr.rerr = bufio.ErrTooLong
			return
		}
		lr.buf = append(lr.buf, make([]byte, min(lr.w, maxScanLine-lr.w))...)
	}
	var n int
	if to == reachArrived {
		n, lr.rerr = readNoWait(lr.body, lr.buf[lr.w:])
	} else {
		n, lr.rerr = lr.body.Read(lr.buf[lr.w:])
	}
	lr.w += n
}

// decode reads line into lr.line.
func (lr *lineReader) decode(line []byte) error {
	sl := &lr.line
	if !sl.decode(line) {
		var gr GenerateResponse
		if err := json.Unmarshal(line, &gr); err != nil {
			return fmt.Errorf("modeld: bad stream line: %w", err)
		}
		sl.fromResponse(&gr)
		lr.sp.Adopt(gr.Spans)
	}
	if sl.done {
		sl.graftSpans(line, lr.sp)
		lr.done = true
		lr.hop.endRequest(false)
	}
	return nil
}

// outcome is how a body that was read to its end, or broke, ended.
func (lr *lineReader) outcome() error {
	switch err := lr.rerr; {
	case lr.done:
		return nil
	case err == io.EOF:
		return ErrTruncatedStream
	case errors.Is(err, errWouldBlock):
		return llm.ErrStreamClosed
	case errors.Is(err, os.ErrDeadlineExceeded):
		return context.DeadlineExceeded // the read deadline Next set
	case lr.ctx.Err() != nil || errors.Is(err, context.Canceled):
		return err // the caller gave up; the daemon did not
	default:
		return fmt.Errorf("%w: %w", ErrTruncatedStream, err)
	}
}

// end closes the body, ends the request, releases its body and records err.
// A full-duplex reply that was read as far as it had arrived is not closed
// but let go of (hopBody.owe): the daemon is stopped in band, unless its
// done line was read, and the connection kept.
func (lr *lineReader) end(err error) {
	lr.ended, lr.err = true, err
	owed := false
	if errors.Is(lr.rerr, errWouldBlock) {
		lr.stopped, owed = lr.hop.owe(lr.done)
	}
	if !owed {
		lr.body.Close()
	}
	if lr.cancel != nil {
		lr.cancel()
	}
	lr.req.release()
}

// settle ends one generation request's span on err and counts the request
// under op; a stream cut short also counts against model in
// modeld_client_truncated_streams_total. A request the daemon answered in
// full at the HTTP level counts as ok even when the answer fell short —
// a body that ended cleanly without a done line (a bare
// ErrTruncatedStream), a daemon without the token extension — since what
// it lacked has its own signal.
func (c *Client) settle(op, model string, start time.Time, sp *telemetry.Span, err error) {
	sp.End(err)
	if errors.Is(err, ErrTruncatedStream) && c.tel != nil {
		c.tel.ClientTruncated.Inc(model)
	}
	if err == ErrTruncatedStream || errors.Is(err, llm.ErrStreamUnsupported) {
		err = nil
	}
	c.observe(op, start, err)
}

// GenerateChunk implements the orchestrator's getChunk(LLM, prompt, λ)
// primitive over the wire: it requests up to req.MaxTokens more tokens,
// resuming from req.Cont, and returns the aggregated chunk.
//
// When the context carries a span, the request is issued under a child
// "modeld.generate" span whose traceparent rides the request header;
// daemon-side spans echoed on the done line (see GenerateResponse.Spans)
// are grafted into the local trace, so client and daemon timings land
// in one tree.
//
// A stream that ends without a Done:true line (connection dropped,
// daemon died mid-answer) returns the accumulated partial chunk together
// with an error wrapping ErrTruncatedStream — never a silently
// half-empty chunk. The partial chunk carries Done == false and the
// continuation state of the request it resumed from, so a retry replays
// the same chunk.
func (c *Client) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (chunk llm.Chunk, err error) {
	start := time.Now()
	// Latency is observed with an outcome label so failed or truncated
	// calls cannot pollute the healthy-call distribution: a dead daemon
	// failing fast would otherwise drag the histogram toward zero while
	// timeouts drag it toward the deadline.
	defer func() { c.observeChunk(req.Model, start, err) }()
	wire := GenerateRequest{Model: req.Model, Prompt: req.Prompt, Context: req.Cont}
	wire.Options.NumPredict = req.MaxTokens
	// Ask for the token extension too: its response_raw keeps a chunk
	// that ends (or a line cut) mid-character byte-exact, so the chunked
	// path returns the same bytes as a stream session and the engine.
	wire.Options.StreamTokens = true
	ctx, sp := telemetry.StartSpan(ctx, "modeld.generate")
	sp.SetAttr("model", req.Model)
	var text strings.Builder
	lr, err := c.send(ctx, &wire, sp)
	if err == nil {
		for lr.next(reachDaemon) {
			sl := &lr.line
			text.Write(sl.text)
			if sl.done {
				// The line's storage is reused: the chunk keeps a copy.
				chunk = llm.Chunk{Done: true, DoneReason: sl.doneReason, Context: append([]int(nil), sl.context...),
					EvalCount: sl.evalCount, TotalTokens: len(sl.context)}
			}
		}
		err = lr.err
		lr.release()
	}
	c.settle("generate", req.Model, start, sp, err)
	switch {
	case err == nil:
		chunk.Text = text.String()
		return chunk, nil
	case errors.Is(err, ErrTruncatedStream):
		// No final line arrived: report consistent partial state and an
		// explicit error instead of a chunk that looks merely unfinished.
		partial := llm.Chunk{Text: text.String(), Context: req.Cont, TotalTokens: len(req.Cont)}
		return partial, fmt.Errorf("%w (got %d bytes of text)", err, text.Len())
	}
	return llm.Chunk{}, err
}

// observeChunk records one GenerateChunk call's latency under the
// bounded outcome label set (ok, error, canceled).
func (c *Client) observeChunk(model string, start time.Time, err error) {
	if c.tel != nil {
		c.tel.ClientChunkLat.Observe(time.Since(start).Seconds(), model, outcome(err))
	}
}

// OpenStream implements llm.StreamingBackend over the wire: it POSTs
// one /api/generate covering the session's whole token budget with the
// stream_tokens extension on and holds the NDJSON response open. Each
// ChunkStream.Next reads it on its caller's goroutine until it holds the
// next per-round slice, and synthesizes that chunk's continuation state,
// so the daemon ingests the prompt once per query instead of once per
// round. Between calls the daemon's lines wait in the connection: a
// session holds no goroutine.
//
// A session legitimately lives for the whole query: cancellation is the
// caller's ctx or Close. A daemon that does not echo token ids (a stock
// Ollama) fails the stream with llm.ErrStreamUnsupported before any text
// is handed out, so llm.Sessions can lift the session onto GenerateChunk
// without duplicating output.
func (c *Client) OpenStream(ctx context.Context, req llm.ChunkRequest) (llm.ChunkStream, error) {
	wire := GenerateRequest{Model: req.Model, Prompt: req.Prompt, Context: req.Cont}
	wire.Options.NumPredict = req.MaxTokens
	wire.Options.StreamTokens = true
	// The stream span covers the whole session: opened here, ended by
	// whichever call reads the done line (or a failure), with the daemon's
	// echoed spans grafted in before it closes. The span must not come
	// from sctx — Close cancels sctx, but the span belongs to the query's
	// still-live trace.
	ctx, sp := telemetry.StartSpan(ctx, "modeld.stream")
	sp.SetAttr("model", req.Model)
	start := time.Now()
	duplex := c.takesStop(ctx)
	lr, err := c.sendAs(ctx, &wire, sp, duplex)
	if errors.Is(err, errNoDuplex) {
		c.stops.Store(stopsNo)
		lr, err = c.send(ctx, &wire, sp)
	}
	if err != nil {
		c.settle("generate_stream", req.Model, start, sp, err)
		return nil, err
	}
	n := 64 // ids to make room for; a bandit's budget is the whole query's, so past 64 they grow
	if req.MaxTokens > 0 {
		n = min(n, req.MaxTokens)
	}
	st := newClientStream(c, req, lr, start, n)
	st.opened = ctx.Done()
	return st, nil
}

// newClientStream is the session over lr, with room for n more ids.
func newClientStream(c *Client, req llm.ChunkRequest, lr *lineReader, start time.Time, n int) *clientStream {
	return &clientStream{c: c, model: req.Model, start: start, wait: req.Wait, lr: lr, cancel: lr.cancel, stop: lr.hop.stop, pc: lr.hop.pc,
		ids: append(make([]int, 0, len(req.Cont)+n), req.Cont...), base: len(req.Cont)}
}

// clientStream is one session over the wire, its body read only by the
// calls made on it. Tokens are held flat — text bytes, one id and one end
// offset per token — so a slice is cut on token boundaries and its Text,
// EvalCount and Context are the same however the daemon batched its lines.
type clientStream struct {
	c     *Client
	model string
	start time.Time
	// wait bounds one Next's wait (llm.ChunkRequest.Wait), and opened is
	// the Done channel of the context the session was opened with, whose
	// end already reaches a blocked read.
	wait   time.Duration
	opened <-chan struct{}
	// What abort ends the request with, fixed at open: the route's cancel,
	// or the exchange's stop and the connection over the hop's own.
	cancel context.CancelFunc
	stop   func() bool
	pc     *hopConn

	// mu is held by each call; Close, which may come from any goroutine,
	// first ends a read another call is blocked in.
	mu sync.Mutex
	lr *lineReader // nil once closed
	// ids is the continuation state the session was opened from, then the
	// id of every token held; it only grows, so slices hand out capped
	// sub-slices of it as Context. head counts the tokens handed out.
	ids        []int
	base, head int
	final      llm.Chunk // the done line's terminal chunk; final.Done once read
	err        error     // why the session ended short, once it did
}

// Next implements llm.ChunkStream. It hands out maxTokens tokens (the rest
// of the session, when maxTokens <= 0) once it holds them or the session
// finished, reading the body for them as needed; the slice that takes the
// last token is the terminal one. A session that failed, or a ctx that
// ended while Next waited, yields what is held as a partial slice before
// the error; a ctx that ends mid-read, or a read that waits out the
// session's wait, ends the session.
//
// Over the hop's own connection the wait and ctx's deadline are the read
// deadline, which costs nothing. ctx's cancellation reaches the read
// through the context the session was opened with when ctx is that one
// (or, having a deadline, descends from it), and otherwise through
// context.AfterFunc; net/http's body has no read deadline, so there the
// wait is a context too.
func (s *clientStream) Next(ctx context.Context, maxTokens int) (llm.Chunk, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lr == nil {
		return llm.Chunk{}, llm.ErrStreamClosed
	}
	s.fill(reachHeld, maxTokens)
	if !s.lr.ended && (s.final.Done || maxTokens <= 0 || s.held() < maxTokens) && ctx.Err() == nil {
		dl, bounded := ctx.Deadline()
		if s.wait > 0 {
			if w := time.Now().Add(s.wait); !bounded || w.Before(dl) {
				dl = w
			}
		}
		if !setReadDeadline(s.lr.body, dl) {
			if s.wait > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, s.wait)
				defer cancel()
			}
			bounded = false
		}
		if !bounded && ctx.Done() != nil && ctx.Done() != s.opened {
			defer context.AfterFunc(ctx, s.abort)()
		}
		s.fill(reachDaemon, maxTokens)
		if s.err != nil && ctx.Err() != nil {
			s.err = ctx.Err()
		}
	}
	switch {
	case s.final.Done || s.held() > 0:
		return s.slice(maxTokens), nil
	case s.err != nil:
		return llm.Chunk{}, s.err
	}
	return llm.Chunk{}, ctx.Err()
}

// Buffered implements llm.BufferedStream: the tokens held once the whole
// lines the reader holds are decoded; it reads nothing from the connection.
func (s *clientStream) Buffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lr == nil {
		return 0
	}
	s.fill(reachHeld, 0)
	return s.held()
}

// Close implements llm.ChunkStream: what has arrived of the body is decoded
// without waiting, so a session whose daemon already finished settles ok
// and its connection goes back to the pool; otherwise the request is
// aborted, and the daemon sees the disconnect and stops generating.
func (s *clientStream) Close() error {
	if !s.mu.TryLock() {
		s.abort()
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	if s.lr != nil {
		s.fill(reachArrived, 0)
		s.lr.release()
		s.lr = nil
	}
	return nil
}

// abort ends the request from any goroutine, failing a read blocked on it;
// it closes the connection only if it wins the exchange's stop, which a
// reply that let its connection go has already called.
func (s *clientStream) abort() {
	if s.cancel != nil {
		s.cancel()
	} else if s.stop != nil && s.stop() {
		s.pc.conn.Close()
	}
}

// held is the count of tokens held and not yet handed out.
func (s *clientStream) held() int { return len(s.lr.ends) - s.head }

// fill decodes lines into held tokens, reading as far as to allows, until
// want tokens are held (want <= 0: all of them), the session finished or
// the body ended — after the done line it reads on only to the body's
// end — and settles a session the body ended short.
func (s *clientStream) fill(to reach, want int) {
	lr := s.lr
	for !lr.ended && (s.final.Done || want <= 0 || s.held() < want) && lr.next(to) {
		if err := s.take(&lr.line); err != nil {
			lr.end(err)
		}
	}
	if lr.ended && !s.final.Done && s.err == nil {
		s.err = lr.err
		if lr.stopped && s.c.tel != nil {
			s.c.tel.ClientStops.Inc(s.model)
		}
		s.c.settle("generate_stream", s.model, s.start, lr.sp, s.err)
	}
}

// take holds the tokens of the line just decoded and, on the done line,
// finishes the session and settles it ok. A line whose tokens cannot be
// held — text without ids (a daemon that ignored stream_tokens), token
// ends that do not partition the text — fails the session before any of
// it is held, so no text is handed out whose continuation state a
// fallback could not reproduce.
func (s *clientStream) take(sl *streamLine) error {
	switch lr := s.lr; {
	case len(sl.ids) > 0:
		if err := checkBatch(sl.text, sl.ids, sl.ends); err != nil {
			return err
		}
		off := len(lr.text)
		lr.text = append(lr.text, sl.text...)
		s.ids = append(s.ids, sl.ids...)
		if len(sl.ends) == 0 {
			lr.ends = append(lr.ends, len(lr.text))
		}
		for _, e := range sl.ends {
			lr.ends = append(lr.ends, off+e)
		}
	case len(sl.text) > 0:
		return fmt.Errorf("modeld: daemon does not echo stream tokens: %w", llm.ErrStreamUnsupported)
	}
	if sl.done {
		// The line's storage is reused: the terminal chunk keeps a context
		// only when it is not the ids held, which a consistent daemon's is.
		s.final = llm.Chunk{Done: true, DoneReason: sl.doneReason, EvalCount: sl.evalCount}
		if !slices.Equal(sl.context, s.ids) {
			s.final.Context = slices.Clone(sl.context)
		}
		s.c.settle("generate_stream", s.model, s.start, s.lr.sp, nil)
	}
	return nil
}

// checkBatch reports why a line's tokens cannot be held on token
// boundaries, or nil when ends partitions text into len(ids) > 0 tokens.
func checkBatch(text []byte, ids, ends []int) error {
	switch {
	case len(ends) == 0 && len(ids) == 1:
		return nil
	case len(ends) != len(ids):
		return fmt.Errorf("modeld: stream line has %d token ids but %d token ends", len(ids), len(ends))
	case ends[len(ends)-1] != len(text):
		return fmt.Errorf("modeld: stream line token ends stop at %d of %d text bytes", ends[len(ends)-1], len(text))
	}
	prev := 0
	for _, e := range ends {
		if e < prev {
			return fmt.Errorf("modeld: stream line token ends decrease (%d after %d)", e, prev)
		}
		prev = e
	}
	return nil
}

// slice hands out the next maxTokens held tokens (all of them when
// maxTokens <= 0 or fewer are held) and synthesizes their chunk.
func (s *clientStream) slice(maxTokens int) llm.Chunk {
	lr, taken, from := s.lr, s.held(), 0
	if maxTokens > 0 {
		taken = min(taken, maxTokens)
	}
	if s.head > 0 {
		from = lr.ends[s.head-1]
	}
	s.head += taken
	var text string
	if taken > 0 {
		text = string(lr.text[from:lr.ends[s.head-1]])
	}
	// Capped, so an append by the caller reallocates, never writing into
	// the ids the session still extends.
	n := s.base + s.head
	drained := s.ids[:n:n]
	if !s.final.Done || s.head < len(lr.ends) {
		return llm.Chunk{Text: text, EvalCount: taken, DoneReason: llm.DoneLength, Context: drained, TotalTokens: len(drained)}
	}
	f := s.final
	f.Text, f.EvalCount = text, taken
	if len(f.Context) == 0 {
		f.Context = drained
	}
	f.TotalTokens = len(f.Context)
	return f
}
