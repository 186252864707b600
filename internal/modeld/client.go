package modeld

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
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
// NDJSON reader (readStream): GenerateChunk, one request per chunk, and
// OpenStream, one request per session. Tags lists the daemon's models.
type Client struct {
	base string
	hc   *http.Client
	tel  *telemetry.Telemetry
	// generate is the POST /api/generate request every generation call is
	// a copy of, built (and its URL parsed) once; generateErr is why it
	// could not be, reported by each call.
	generate    *http.Request
	generateErr error
}

var (
	defaultClientOnce sync.Once
	defaultClient     *http.Client
)

// defaultHTTPClient returns the package's fan-out client, built exactly
// once. http.DefaultClient keeps at most 2 idle connections per host
// (net/http's DefaultMaxIdleConnsPerHost), so an orchestrator fanning one
// stream per model out to a single daemon would reconnect — TCP handshake
// and slow-start — on every session beyond the second model. Its
// transport, hopTransport, keeps an idle connection per concurrent model
// stream, so steady-state sessions reuse warm connections, and writes and
// reads each request on its caller's goroutine. It speaks plain http
// only, and reads no proxy variables: a daemon behind TLS or a proxy is
// reached through WithHTTPClient.
func defaultHTTPClient() *http.Client {
	defaultClientOnce.Do(func() {
		defaultClient = &http.Client{Transport: newHopTransport()}
	})
	return defaultClient
}

// Option configures a Client at construction; see New. A Client is fully
// configured before its first request, so no caller can observe a
// half-configured client and new knobs don't widen the constructor
// signature.
type Option func(*Client)

// WithHTTPClient overrides the package's shared fan-out HTTP client (see
// defaultHTTPClient) entirely: a daemon reached over https or through a
// proxy needs one, since the default speaks plain http only and reads no
// proxy variables. A nil hc keeps the default.
// Generation (GenerateChunk, OpenStream) uses only hc.Transport, or
// http.DefaultTransport: hc.Timeout, Jar and CheckRedirect do not apply.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
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
// Label cardinality is bounded by construction: op is one of a fixed
// set of call names (generate, generate_stream, tags), outcome is
// ok/error/canceled, and model is the configured model name. Query
// text, prompts, and session IDs never become labels — they are
// unbounded and would explode the series space (the registry's series
// cap would collapse them into "_other", losing the per-model signal
// too).
func WithTelemetry(tel *telemetry.Telemetry) Option {
	return func(c *Client) { c.tel = tel }
}

// New returns a client for a daemon at base (e.g.
// "http://127.0.0.1:11434"), configured by options. With no options the
// client uses the package's shared fan-out HTTP client, which speaks
// plain http only and reads no proxy variables, and no telemetry. A
// request's deadline is its caller's context's: the orchestrator bounds
// every drain that may wait.
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: defaultHTTPClient()}
	c.generate, c.generateErr = http.NewRequest(http.MethodPost, c.base+"/api/generate", nil)
	for _, opt := range opts {
		opt(c)
	}
	return c
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

// do issues a JSON request and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) (err error) {
	start := time.Now()
	op := strings.TrimPrefix(path, "/api/")
	defer func() { c.observe(op, start, err) }()
	ctx, sp := telemetry.StartSpan(ctx, "modeld."+op)
	defer func() { sp.End(err) }()
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tp := sp.Traceparent(); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeError(resp *http.Response) error {
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err == nil && eb.Error != "" {
		return fmt.Errorf("modeld: %s: %s", resp.Status, eb.Error)
	}
	return fmt.Errorf("modeld: %s", resp.Status)
}

// Header values shared by every generation request and daemon reply, read
// only; an empty User-Agent keeps the transport from sending its own.
var (
	jsonContentType   = []string{"application/json"}
	ndjsonContentType = []string{"application/x-ndjson"}
	noUserAgent       = []string{""}
)

// postGenerate POSTs req to /api/generate under ctx, with sp's traceparent
// when there is a span, and returns the response once the daemon has
// accepted the request (any other status is an error). The request is a
// copy of the one New built and its body is encoded into a pooled buffer,
// so nothing is parsed or reflected over per call; it goes straight to the
// transport, since ctx bounds it and the daemon neither
// redirects nor sets cookies. The caller releases body once it has closed
// the response body — until then the transport may still be sending it,
// which is also why a failed call leaves its buffer to the garbage
// collector.
func (c *Client) postGenerate(ctx context.Context, req *GenerateRequest, sp *telemetry.Span) (resp *http.Response, body *requestBuf, err error) {
	if c.generateErr != nil {
		return nil, nil, c.generateErr
	}
	body = requestBufPool.Get().(*requestBuf)
	body.encode(req)
	data := body.body
	httpReq := c.generate.WithContext(ctx)
	httpReq.Header = http.Header{"Content-Type": jsonContentType, "User-Agent": noUserAgent}
	if tp := sp.Traceparent(); tp != "" {
		httpReq.Header["Traceparent"] = []string{tp}
	}
	httpReq.ContentLength = int64(len(data))
	httpReq.Body = io.NopCloser(bytes.NewReader(data))
	// GetBody lets the transport replay the request when a kept-alive
	// connection turns out to have been closed under it.
	httpReq.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }
	rt := c.hc.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	resp, err = rt.RoundTrip(httpReq)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		err := decodeError(resp)
		resp.Body.Close()
		return nil, nil, err
	}
	return resp, body, nil
}

// maxScanLine bounds one NDJSON stream line; the scanner grows toward it
// only for pathological lines. The daemon reads request bodies through the
// same bound.
const maxScanLine = 8 * 1024 * 1024

// readStream is the client's one NDJSON reader: it reads the body of an
// /api/generate response a line at a time into pooled storage — the
// scanner of wire.go first, encoding/json for a line it declines — and
// hands each line to each, the done line with its span records already
// grafted into sp. After the done line the body is only read to its end,
// so the connection can be reused; then it is closed and the request's
// body released. It reports how the body ended, once:
// nil after a done line; a bad line or each's error at once; the read
// error of a request whose context ended; otherwise ErrTruncatedStream —
// bare when the body ended cleanly, wrapping the read error when it broke.
func readStream(resp *http.Response, body *requestBuf, sp *telemetry.Span, each func(*streamLine) error) error {
	defer body.release() // once the response body is closed
	defer resp.Body.Close()
	sl := streamLinePool.Get().(*streamLine)
	defer streamLinePool.Put(sl)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(sl.scan, maxScanLine)
	done := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || done {
			continue
		}
		if !sl.decode(line) {
			var gr GenerateResponse
			if err := json.Unmarshal(line, &gr); err != nil {
				return fmt.Errorf("modeld: bad stream line: %w", err)
			}
			sl.fromResponse(&gr)
			sp.Adopt(gr.Spans)
		}
		if sl.done {
			sl.graftSpans(line, sp)
			done = true
		}
		if err := each(sl); err != nil {
			return err
		}
	}
	switch err := sc.Err(); {
	case done:
		return nil
	case err == nil:
		return ErrTruncatedStream
	case resp.Request.Context().Err() != nil:
		return err // the caller gave up; the daemon did not
	default:
		return fmt.Errorf("%w: %w", ErrTruncatedStream, err)
	}
}

// settle ends one generation request's span on err and counts the request
// under op; a stream cut short also counts against model in
// modeld_client_truncated_streams_total. A request the daemon answered in
// full at the HTTP level counts as ok even when the answer fell short —
// a body that ended cleanly without a done line (readStream's bare
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
	resp, body, err := c.postGenerate(ctx, &wire, sp)
	if err == nil {
		err = readStream(resp, body, sp, func(sl *streamLine) error {
			text.Write(sl.text)
			if sl.done {
				// The line's storage is reused: the chunk keeps a copy.
				chunk = llm.Chunk{Done: true, DoneReason: sl.doneReason, Context: append([]int(nil), sl.context...),
					EvalCount: sl.evalCount, TotalTokens: len(sl.context)}
			}
			return nil
		})
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
// stream_tokens extension on, holds the NDJSON stream open, and buffers
// delivered tokens client-side; each ChunkStream.Next then slices the
// next per-round chunk off the buffer with synthesized continuation
// state, so the daemon ingests the prompt once per query instead of
// once per round.
//
// A session legitimately lives for the whole query: cancellation is the
// caller's ctx or Close. A daemon that does not echo token ids (a stock Ollama)
// fails the stream with llm.ErrStreamUnsupported before any text is
// handed out, so llm.Sessions can lift the session onto GenerateChunk
// without duplicating output.
func (c *Client) OpenStream(ctx context.Context, req llm.ChunkRequest) (llm.ChunkStream, error) {
	wire := GenerateRequest{Model: req.Model, Prompt: req.Prompt, Context: req.Cont}
	wire.Options.NumPredict = req.MaxTokens
	wire.Options.StreamTokens = true
	// The stream span covers the whole session: opened here, ended by
	// the pump on the done line (or failure), with the daemon's echoed
	// spans grafted in before it closes. The span must not come from
	// sctx — Close cancels sctx, but the span belongs to the query's
	// still-live trace.
	ctx, sp := telemetry.StartSpan(ctx, "modeld.stream")
	sp.SetAttr("model", req.Model)
	sctx, cancel := context.WithCancel(ctx)
	start := time.Now()
	resp, body, err := c.postGenerate(sctx, &wire, sp)
	if err != nil {
		cancel()
		c.settle("generate_stream", req.Model, start, sp, err)
		return nil, err
	}
	s := &clientStream{buf: llm.NewStreamBuffer(req.Cont, req.MaxTokens), cancel: cancel}
	go c.pumpStream(resp, body, s.buf, req.Model, start, sp)
	return s, nil
}

// pumpStream drains one open generation stream into its client-side
// buffer: token lines are pushed as they arrive, the done line pushes its
// tokens and finishes the buffer, and however the body ended the buffer, the span and the
// request's count are settled once. A buffer the consumer closed refuses
// the next line, which ends the read and counts as canceled.
func (c *Client) pumpStream(resp *http.Response, body *requestBuf, buf *llm.StreamBuffer, model string, start time.Time, sp *telemetry.Span) {
	err := readStream(resp, body, sp, func(sl *streamLine) error {
		switch {
		case sl.done:
			// The done line carries the last batch: pushed and finished in
			// one step, so no drain takes the model's last token without
			// its end.
			return buf.Finish(sl.text, sl.ids, sl.ends, llm.Chunk{
				Done: true, DoneReason: sl.doneReason,
				Context: sl.context, EvalCount: sl.evalCount, TotalTokens: len(sl.context),
			})
		case len(sl.ids) > 0:
			// Push rejects a line whose token_ends do not partition its text
			// before buffering any of it, failing the stream.
			return buf.Push(sl.text, sl.ids, sl.ends)
		case len(sl.text) > 0:
			// The daemon ignored stream_tokens (e.g. a stock Ollama):
			// without per-line ids the buffer cannot synthesize resume
			// state, so refuse the session before any text leaks out.
			return fmt.Errorf("modeld: daemon does not echo stream tokens: %w", llm.ErrStreamUnsupported)
		}
		return nil
	})
	if err != nil {
		buf.Fail(err)
	}
	c.settle("generate_stream", model, start, sp, err)
}

// clientStream adapts a pumped HTTP generation stream to llm.ChunkStream.
type clientStream struct {
	buf    *llm.StreamBuffer
	cancel context.CancelFunc
}

// Next implements llm.ChunkStream.
func (s *clientStream) Next(ctx context.Context, maxTokens int) (llm.Chunk, error) {
	return s.buf.Drain(ctx, maxTokens)
}

// Buffered implements llm.BufferedStream.
func (s *clientStream) Buffered() int { return s.buf.Buffered() }

// Close implements llm.ChunkStream: it aborts the HTTP request (the
// daemon sees the disconnect and stops generating) and poisons the
// buffer.
func (s *clientStream) Close() error {
	s.cancel()
	s.buf.Close()
	return nil
}

// Tags lists installed models.
func (c *Client) Tags(ctx context.Context) ([]ModelInfo, error) {
	var resp TagsResponse
	if err := c.do(ctx, http.MethodGet, "/api/tags", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Models, nil
}
