// Package modeld implements the model daemon of LLM-MS: an HTTP server
// and client pair speaking an Ollama-compatible REST protocol over the
// simulated inference engine.
//
// The paper's computation layer talks to the Ollama daemon (v0.4.5): it
// POSTs /api/generate with a num_predict budget, consumes a streaming
// NDJSON response token batch by token batch, reads the final object's
// done_reason ("stop" vs "length") and opaque context for continuation,
// and uses the daemon's embedding endpoint for all vector encoding. This
// package reproduces that wire contract:
//
//	POST /api/generate  — streaming NDJSON generation (num_predict, context)
//	POST /api/embed     — embeddings for one input or a batch
//	GET  /api/tags      — installed models
//	POST /api/show      — model details
//	GET  /api/version   — daemon version (the simulated 0.4.5) and stop_line (LLM-MS extension)
//	GET  /api/gpu       — hardware telemetry (LLM-MS extension)
//	GET  /metrics       — Prometheus text-format daemon metrics (LLM-MS extension)
//
// The Client type wraps the protocol for Go callers and satisfies the
// orchestrator's Backend interface, so LLM-MS runs identically against an
// in-process engine or a daemon across the network.
package modeld

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"llmms/internal/llm"
	"llmms/internal/telemetry"
)

// Version is the protocol version the daemon reports, matching the
// Ollama release the paper deployed.
const Version = "0.4.5-sim"

// GenerateRequest is the wire form of a generation call.
type GenerateRequest struct {
	Model   string `json:"model"`
	Prompt  string `json:"prompt"`
	Stream  *bool  `json:"stream,omitempty"`
	Context []int  `json:"context,omitempty"`
	Options struct {
		NumPredict int `json:"num_predict,omitempty"`
		// StreamTokens is an LLM-MS extension: when true, every
		// streamed NDJSON line echoes the ids of the tokens it carries
		// (GenerateResponse.Tokens, with TokenEnds and ResponseRaw
		// making the line sliceable and byte-exact; see wire.go), so a
		// client holding the stream open across orchestration rounds
		// can synthesize per-slice continuation state without waiting
		// for the final line. A daemon that does not understand the
		// option simply omits the fields, which the client detects and
		// treats as stream-unsupported.
		StreamTokens bool `json:"stream_tokens,omitempty"`
	} `json:"options,omitempty"`
}

// GenerateResponse is one NDJSON line of a generation stream (or the
// whole reply when stream=false).
type GenerateResponse struct {
	Model      string `json:"model"`
	CreatedAt  string `json:"created_at"`
	Response   string `json:"response"`
	Done       bool   `json:"done"`
	DoneReason string `json:"done_reason,omitempty"`
	Context    []int  `json:"context,omitempty"`
	EvalCount  int    `json:"eval_count,omitempty"`
	// Tokens carries the ids of this line's tokens when the request set
	// Options.StreamTokens (LLM-MS extension; see GenerateRequest).
	Tokens []int `json:"tokens,omitempty"`
	// TokenEnds, on a StreamTokens line of more than one token, is the
	// byte offset in the line's text at which each token ends.
	TokenEnds []int `json:"token_ends,omitempty"`
	// ResponseRaw (base64 on the wire) is the line's exact text on a
	// StreamTokens line whose bytes are not valid UTF-8 — a multi-byte
	// character split across tokens and cut by the line — where Response
	// can only carry U+FFFD. TokenEnds refer to it when it is present.
	ResponseRaw []byte `json:"response_raw,omitempty"`
	// Spans carries the daemon-side span records of this generation on
	// the final (Done) line when the request arrived with a traceparent
	// header (LLM-MS extension). The client grafts them into its local
	// trace, so one query's span tree crosses the process boundary. A
	// daemon that does not understand tracing simply omits the field.
	Spans []telemetry.SpanRecord `json:"spans,omitempty"`
}

// EmbedRequest is the wire form of an embedding call. Input accepts a
// string or an array of strings, like Ollama.
type EmbedRequest struct {
	Model string          `json:"model"`
	Input json.RawMessage `json:"input"`
}

// EmbedResponse carries one embedding per input.
type EmbedResponse struct {
	Model      string      `json:"model"`
	Embeddings [][]float32 `json:"embeddings"`
}

// TagsResponse lists installed models.
type TagsResponse struct {
	Models []ModelInfo `json:"models"`
}

// ModelInfo describes one installed model.
type ModelInfo struct {
	Name    string       `json:"name"`
	Size    uint64       `json:"size"`
	Details ModelDetails `json:"details"`
}

// ModelDetails mirrors the nested details object of Ollama's tags reply.
type ModelDetails struct {
	Family            string `json:"family"`
	ParameterSize     string `json:"parameter_size"`
	QuantizationLevel string `json:"quantization_level"`
}

// ShowRequest asks for one model's details.
type ShowRequest struct {
	Model string `json:"model"`
}

// ShowResponse returns the full profile of a model.
type ShowResponse struct {
	Name          string       `json:"name"`
	Details       ModelDetails `json:"details"`
	ContextWindow int          `json:"context_window"`
	TokensPerSec  float64      `json:"tokens_per_sec"`
	Loaded        bool         `json:"loaded"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Server is the HTTP daemon.
type Server struct {
	engine   *llm.Engine
	mux      *http.ServeMux
	reg      *telemetry.Registry
	tracer   *telemetry.Tracer
	log      *slog.Logger
	pprof    bool
	requests telemetry.Counter
	latency  telemetry.Histogram
	genTok   telemetry.Counter
}

// ServerOption configures the daemon at construction; see NewServer.
type ServerOption func(*Server)

// WithLogger attaches a structured logger; generation requests log at
// debug level (stamped with the propagated trace ID when the caller
// sent one) and failures at warn. Nil keeps the default no-op logger.
func WithLogger(log *slog.Logger) ServerOption {
	return func(s *Server) {
		if log != nil {
			s.log = log
		}
	}
}

// WithPprof mounts net/http/pprof under /debug/pprof/ on the daemon
// mux — the same flag-gated profiling surface the platform server has.
func WithPprof(enabled bool) ServerOption {
	return func(s *Server) { s.pprof = enabled }
}

// NewServer wraps an engine in the daemon protocol. The daemon carries
// its own metrics registry (modeld_requests_total{route,code},
// modeld_request_duration_seconds{route},
// modeld_generate_tokens_total{model}, the engine's llmms_batch_*
// scheduler series, plus llmms_go_* runtime gauges
// and llmms_build_info) exposed on GET /metrics; route labels are the
// registration patterns and model labels the engine's model names, so
// cardinality stays bounded.
func NewServer(engine *llm.Engine, opts ...ServerOption) *Server {
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	telemetry.RegisterBuildInfo(reg, Version)
	s := &Server{
		engine: engine,
		mux:    http.NewServeMux(),
		reg:    reg,
		tracer: telemetry.NewTracer("modeld"),
		log:    telemetry.NopLogger(),
		requests: reg.Counter("modeld_requests_total",
			"Daemon HTTP requests by route pattern and status code.", "route", "code"),
		latency: reg.Histogram("modeld_request_duration_seconds",
			"Daemon HTTP request latency by route pattern.", nil, "route"),
		genTok: reg.Counter("modeld_generate_tokens_total",
			"Tokens generated by the daemon, per model.", "model"),
	}
	// The engine's batch schedulers report into the daemon's registry
	// (llmms_batch_occupancy, llmms_batch_step_seconds,
	// llmms_batch_admission_wait_seconds, llmms_batch_steps_total).
	bm := telemetry.RegisterBatchMetrics(reg)
	engine.SetBatchHooks(llm.BatchHooks{
		Step: bm.ObserveStep, Admit: bm.ObserveAdmission, Idle: bm.MarkIdle,
	})
	for _, opt := range opts {
		opt(s)
	}
	s.handle("POST /api/generate", s.handleGenerate)
	s.handle("POST /api/embed", s.handleEmbed)
	s.handle("GET /api/tags", s.handleTags)
	s.handle("POST /api/show", s.handleShow)
	s.handle("GET /api/version", s.handleVersion)
	s.handle("GET /api/gpu", s.handleGPU)
	s.mux.Handle("GET /metrics", reg.Handler())
	if s.pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Registry exposes the daemon's metrics registry so embedding processes
// can add their own series to the same /metrics page.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// handle registers a handler wrapped with per-route request counting
// and latency observation, labeled by the registration pattern.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := telemetry.NewResponseRecorder(w)
		h(rec, r)
		s.requests.Inc(pattern, strconv.Itoa(rec.Status))
		s.latency.Observe(time.Since(start).Seconds(), pattern)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// badBody answers a request whose body could not be taken: 413 when it
// ran past the cap every body is read through, 400 otherwise.
func badBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		return
	}
	writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
}

// decodeBody decodes a JSON request body of at most maxScanLine bytes — the
// bound the client applies to a line coming back — into v, answering the
// request itself when it cannot.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxScanLine)).Decode(v); err != nil {
		badBody(w, err)
		return false
	}
	return true
}

// read fills rb.body with the request's body, through the same cap.
func (rb *requestBuf) read(w http.ResponseWriter, r *http.Request) error {
	buf := bytes.NewBuffer(rb.body[:0])
	if n := r.ContentLength; n > 0 && n <= maxScanLine {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants that much room to see the EOF
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxScanLine))
	rb.body = buf.Bytes()
	return err
}

// handleGenerate answers one generation request. A request with a
// Content-Length body is read whole. A chunked one is a client's
// full-duplex request (see stopLine): its first line is the generate
// object, and the rest of its body is handed to a watcher that stops the
// generation on a stop line; the done line is flushed, and the handler
// returns only once the watcher has read the body to its end, since no
// handler may read its body after it returned. A connection that cannot
// go full duplex is refused at once with 411, before the body is read, so
// that the client resends the request with a Content-Length.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	rb := requestBufPool.Get().(*requestBuf)
	defer rb.release()
	duplex := r.ContentLength < 0
	var err error
	if duplex {
		if http.NewResponseController(w).EnableFullDuplex() != nil {
			w.Header().Set("Connection", "close")
			writeErr(w, http.StatusLengthRequired, "this connection cannot read a chunked request while it replies; send a Content-Length")
			return
		}
		err = rb.readLine(r.Body)
	} else {
		err = rb.read(w, r)
	}
	if err != nil {
		badBody(w, err)
		return
	}
	req := &rb.req
	if !rb.decode(req) {
		if err := json.NewDecoder(bytes.NewReader(rb.body)).Decode(req); err != nil {
			badBody(w, err)
			return
		}
	}
	if req.Model == "" {
		writeErr(w, http.StatusBadRequest, "model is required")
		return
	}
	stream := req.Stream == nil || *req.Stream

	// Join the caller's trace when a valid traceparent header arrived; a
	// malformed or absent header gets a fresh daemon-local root instead.
	// The finished daemon-side spans ride back on the final NDJSON line
	// whenever the caller sent any traceparent at all — the client grafts
	// only records whose trace ID is its own, so echoing after a malformed
	// header is harmless.
	tp := r.Header.Get("Traceparent")
	tid, sid, _ := telemetry.ParseTraceparent(tp)
	ctx, root := s.tracer.StartRootFrom(r.Context(), "modeld.handle_generate", tid, sid)
	root.SetAttr("model", req.Model)
	start := time.Now()

	// The engine returns its handle immediately; decoding happens while
	// the writer below drains it, so the engine.generate span wraps the
	// drain, not the call.
	gen := root.Child("engine.generate")
	// The hold covers every use of the two handles below; a client that
	// goes away mid-stream skips finish, so the spans end here at the
	// latest and the arena goes back to the pool either way.
	root.Hold()
	defer func() {
		gen.End(ctx.Err())
		root.End(ctx.Err())
		root.Release()
	}()
	generation, err := s.engine.Generate(ctx, llm.GenRequest{
		Model:     req.Model,
		Prompt:    req.Prompt,
		MaxTokens: req.Options.NumPredict,
		Context:   req.Context,
	})
	if err != nil {
		gen.End(err)
		root.End(err)
		s.log.Warn("generate failed", "model", req.Model, "trace_id", root.TraceID(), "err", err)
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	if duplex {
		rb.watching.Add(1)
		go rb.watch(r.Body, generation)
	}
	// Occupancy the moment this request joined the model's batch
	// (active plus queued, including this one).
	if st, ok := s.engine.BatchStats(req.Model); ok {
		gen.SetInt("batch_occupancy", st.Active+st.Pending)
	}

	lw := newLineWriter(w, req.Model, req.Options.StreamTokens)
	defer lw.release()
	// finish closes the spans over the terminal chunk and returns the root
	// of the arena the done line (or the whole stream=false reply) carries.
	finish := func(last llm.Chunk) *telemetry.Span {
		s.genTok.Add(float64(last.EvalCount), req.Model)
		gen.SetInt("tokens", last.EvalCount)
		if stream {
			gen.SetInt("lines", lw.lines)
		}
		gen.End(nil)
		root.End(nil)
		if s.log.Enabled(ctx, slog.LevelDebug) {
			s.log.Debug("generate", "model", req.Model, "tokens", last.EvalCount,
				"trace_id", root.TraceID(), "elapsed", time.Since(start))
		}
		if tp == "" {
			return nil
		}
		return root
	}
	if !stream {
		text, last := llm.Collect(generation)
		lw.reply(text, last, finish(last))
	} else {
		lw.stream(generation, finish)
	}
	if duplex {
		// The client ends its body once it has read the done line.
		lw.flush()
		rb.watching.Wait()
	}
}

func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	var req EmbedRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var inputs []string
	var single string
	if err := json.Unmarshal(req.Input, &single); err == nil {
		inputs = []string{single}
	} else if err := json.Unmarshal(req.Input, &inputs); err != nil {
		writeErr(w, http.StatusBadRequest, "input must be a string or array of strings")
		return
	}
	resp := EmbedResponse{Model: req.Model}
	for _, in := range inputs {
		v, err := s.engine.Embed(req.Model, in)
		if err != nil {
			writeErr(w, http.StatusNotFound, "%v", err)
			return
		}
		resp.Embeddings = append(resp.Embeddings, v)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTags(w http.ResponseWriter, _ *http.Request) {
	var resp TagsResponse
	for _, p := range s.engine.Profiles() {
		resp.Models = append(resp.Models, ModelInfo{
			Name: p.Name, Size: p.SizeBytes,
			Details: ModelDetails{
				Family:            p.Family,
				ParameterSize:     p.Parameters,
				QuantizationLevel: p.Quantization,
			},
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleShow(w http.ResponseWriter, r *http.Request) {
	var req ShowRequest
	if !decodeBody(w, r, &req) {
		return
	}
	p, err := s.engine.Profile(req.Model)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ShowResponse{
		Name: p.Name,
		Details: ModelDetails{
			Family:            p.Family,
			ParameterSize:     p.Parameters,
			QuantizationLevel: p.Quantization,
		},
		ContextWindow: p.ContextWindow,
		TokensPerSec:  p.TokensPerSec,
		Loaded:        s.engine.Loaded(p.Name),
	})
}

// versionBody is the /api/version reply. StopLine, an LLM-MS extension,
// says the daemon reads a chunked /api/generate body in full duplex and
// stops the generation on that line; a daemon without it (a stock Ollama)
// gets requests with a Content-Length, and a session stops it by hanging
// up.
type versionBody struct {
	Version  string `json:"version"`
	StopLine string `json:"stop_line,omitempty"`
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, versionBody{Version: Version, StopLine: stopLine})
}

func (s *Server) handleGPU(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Cluster().Stats())
}
