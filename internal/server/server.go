// Package server implements the LLM-MS application layer (Chapter 5 and
// §7.2): the web-facing coordination hub that accepts queries, streams
// orchestration events to the browser, manages sessions and settings,
// ingests documents for retrieval-augmented generation, and exposes model
// and GPU telemetry.
//
// The paper's stack is Flask + Apache/mod_wsgi streaming Server-Sent
// Events from the Ollama daemon; this package reproduces the same REST
// surface on net/http:
//
//	GET  /                     embedded chat UI
//	POST /api/query            SSE stream of orchestration events
//	POST /api/upload           document ingestion (RAG)
//	GET  /api/documents        ingested document inventory
//	DELETE /api/documents/{id} remove an ingested document
//	GET/POST /api/sessions     session list / create
//	GET/DELETE /api/sessions/{id}
//	DELETE /api/sessions       clear history
//	GET  /api/models           model inventory
//	GET/PUT /api/settings      orchestration settings
//	POST /api/configure        natural-language settings changes (§9.5)
//	POST /api/feedback         answer ratings, evidence for the routing index (§9.5)
//	GET  /api/recall           contextual memory-graph recall (§9.5)
//	GET  /api/gpu              hardware telemetry
//	GET  /api/fleet            per-replica fleet status (only with Options.Fleet)
//	GET  /api/router           routing index, per-cluster model standings (only with Options.Routing)
//	GET  /api/traces           recent completed query traces (newest first, ?limit=)
//	GET  /api/traces/{id}      one query's trace: header, span tree, §9.5 decision log
//	GET  /metrics              Prometheus text-format metrics exposition
//	GET  /healthz              liveness (always ok while the process serves)
//	GET  /readyz               readiness with per-dependency check status
//	GET  /api/version
//	GET  /debug/pprof/...      runtime profiles (only with Options.EnablePprof)
//
// Every route is instrumented: per-endpoint request counters
// (llmms_http_requests_total{route,code}) and latency histograms
// (llmms_http_request_duration_seconds{route}), with SSE stream/frame
// counters on /api/query; see internal/telemetry for the full metric
// catalogue. Each /api/query run is assigned a query ID (returned in
// the X-Query-ID header and the final "result" frame) under which its
// trace is retrievable from /api/traces/{id}: header, span tree, and the
// plain-English decision log rendered from the spans when it is read.
//
// Every non-2xx response — and the SSE "error" event on /api/query —
// carries the uniform JSON envelope
//
//	{"error": {"code": "unknown_session", "message": "session abc not found"}}
//
// where code is a stable machine-readable identifier (invalid_json,
// missing_field, invalid_strategy, invalid_max_tokens, unknown_session,
// unknown_document, unknown_model, unknown_trace, invalid_settings, invalid_rating,
// body_too_large, request_too_large, overloaded, ingest_failed,
// delete_failed, retrieval_failed, ephemeral_context, invalid_config, encode_failed,
// all_models_failed, query_failed) and message is the human-readable
// detail. The one exception is GET /readyz, whose 503 body is the
// per-dependency check report itself. The /api/query stream also
// forwards core orchestration events verbatim, including "model_failed"
// frames when a model is dropped after retry exhaustion while the query
// continues on the survivors.
//
// With Options.Serving configured, a cross-query serving layer sits in
// front of orchestration (see ServingOptions and DESIGN.md "Serving
// layer"): /api/query responses then carry an X-Cache header — MISS
// (full orchestration ran), HIT (exact answer-cache replay), SEMANTIC
// (near-duplicate query's answer replayed), or COALESCED (an identical
// in-flight query's stream was shared) — and requests beyond the
// admission bound are shed with 429, an "overloaded" envelope, and a
// Retry-After header. JSON request bodies are capped at 1 MiB (413 +
// request_too_large beyond it); /api/upload's at 16 MiB (413 +
// body_too_large).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"llmms/internal/core"
	"llmms/internal/embedding"
	"llmms/internal/fleet"
	"llmms/internal/llm"
	"llmms/internal/qcache"
	"llmms/internal/rag"
	"llmms/internal/router"
	"llmms/internal/session"
	"llmms/internal/telemetry"
	"llmms/internal/vectordb"
)

// Version is reported by /api/version.
const Version = "1.0.0"

// Settings are the user-tunable orchestration parameters (the paper's
// settings panel, §5.3).
type Settings struct {
	// Strategy is the default policy: "oua", "mab", "hybrid", or "single".
	Strategy string `json:"strategy"`
	// Model is the default model for single-model queries.
	Model string `json:"model"`
	// MaxTokens is λ_max per query.
	MaxTokens int `json:"max_tokens"`
	// Alpha and Beta weight the scoring terms.
	Alpha float64 `json:"alpha"`
	// Beta is the inter-model agreement weight.
	Beta float64 `json:"beta"`
	// EnabledModels are the candidate models for orchestration.
	EnabledModels []string `json:"enabled_models"`
	// RAGTopK is how many retrieved chunks augment each prompt.
	RAGTopK int `json:"rag_top_k"`
}

// Validate rejects unusable settings.
func (s Settings) Validate() error {
	if _, err := core.ParseStrategy(s.Strategy); err != nil {
		return err
	}
	if s.MaxTokens < 1 {
		return errors.New("max_tokens must be positive")
	}
	if s.Alpha < 0 || s.Beta < 0 {
		return errors.New("alpha and beta must be non-negative")
	}
	if len(s.EnabledModels) == 0 {
		return errors.New("at least one model must be enabled")
	}
	if s.RAGTopK < 1 {
		return errors.New("rag_top_k must be positive")
	}
	return nil
}

// DefaultSettings matches the paper's evaluation defaults.
func DefaultSettings() Settings {
	return Settings{
		Strategy:      string(core.StrategyOUA),
		Model:         llm.ModelLlama3,
		MaxTokens:     2048,
		Alpha:         0.7,
		Beta:          0.3,
		EnabledModels: []string{llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2},
		RAGTopK:       3,
	}
}

// Options configures a Server.
type Options struct {
	// Engine is the inference backend. Required: it serves the model
	// inventory, embeddings, and GPU telemetry even when Backend
	// overrides generation.
	Engine *llm.Engine
	// Backend, when non-nil, overrides the generation backend the
	// orchestrator calls (default: Engine). Deployments point it at a
	// modeld.Client to orchestrate across remote daemons; tests and
	// benchmarks inject fault/latency backends.
	Backend core.Backend
	// Fleet, when non-nil, is the replicated model-fleet layer. It
	// becomes the generation backend when Backend is nil, every fleet
	// model gains a per-model /readyz check named "fleet:<model>" (ready
	// iff at least one replica is healthy with a closed breaker), and
	// GET /api/fleet exposes the per-replica status snapshot. The caller
	// owns the pool's lifecycle (Start/Close).
	Fleet *fleet.Pool
	// Serving configures the cross-query serving layer (answer cache,
	// in-flight coalescing, admission control). The zero value disables
	// all three.
	Serving ServingOptions
	// Routing configures query-aware predictive routing (see
	// RoutingOptions and DESIGN.md "Predictive routing"). The zero
	// value disables it.
	Routing RoutingOptions
	// Telemetry is the metrics registry and trace store the server
	// instruments itself into. Nil constructs a fresh default bundle, so
	// embedding apps that want to share one registry across components
	// (e.g. with a modeld.Client) pass theirs here.
	Telemetry *telemetry.Telemetry
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose internals and cost CPU, so production
	// deployments opt in explicitly (the -pprof flag on cmd/llmms).
	EnablePprof bool
	// Logger receives structured request/query logs (log/slog). Every
	// query-scoped line carries query_id and trace_id. Nil discards all
	// output (the -log-level/-log-format flags on cmd/llmms build one).
	Logger *slog.Logger
	// DataDir, when set, makes the memory substrate durable: the vector
	// database (RAG chunks, sessions) lives under <DataDir>/vectordb with
	// write-ahead logging and crash recovery, and the answer cache warm-
	// starts from <DataDir>/qcache.json. Call Close on shutdown to cut
	// final snapshots. Empty keeps everything in memory (the -data-dir
	// flag on cmd/llmms).
	DataDir string
	// WALSync is the WAL durability policy under DataDir: "batch"
	// (group-committed fsync, default), "always", or "none" (the
	// -wal-sync flag on cmd/llmms).
	WALSync vectordb.SyncPolicy
}

// slowQuery is the elapsed time past which a completed query logs at
// warn ("slow query") with its span statistics.
const slowQuery = 2 * time.Second

// readyCheck is one named readiness probe for /readyz.
type readyCheck struct {
	// name identifies the dependency in the /readyz report.
	name string
	// check returns nil when the dependency is usable. The context
	// carries the probe deadline.
	check func(ctx context.Context) error
}

// Server is the application layer. Construct with NewServer; it
// implements http.Handler.
type Server struct {
	engine      *llm.Engine
	backend     core.Backend
	sessions    *session.Store
	docs        *vectordb.Collection
	ingestor    *rag.Ingestor
	memory      *session.MemoryGraph
	tel         *telemetry.Telemetry
	cache       *qcache.Cache     // nil when the answer cache is disabled
	flights     *qcache.Group     // nil when coalescing is disabled
	gate        *qcache.Gate      // nil when admission is unbounded
	fleet       *fleet.Pool       // nil without Options.Fleet
	predictor   *router.Predictor // nil when predictive routing is disabled
	tracer      *telemetry.Tracer
	logger      *slog.Logger
	readyChecks []readyCheck
	pprofOn     bool
	mux         *http.ServeMux

	// Persistence (see persistence.go); dataDir empty means in-memory.
	db      *vectordb.DB
	dataDir string
	sessCol *vectordb.Collection // durable session-state slot, nil in memory

	mu       sync.Mutex
	settings Settings
	docIDs   map[string]docInfo
	ragRev   int // document-set revision, in memory only; bumped on upload/delete
}

type docInfo struct {
	Name   string `json:"name"`
	Chunks int    `json:"chunks"`
}

// NewServer wires the application layer together.
func NewServer(opts Options) (*Server, error) {
	if opts.Engine == nil {
		return nil, errors.New("server: nil engine")
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.New(telemetry.Options{})
	}
	// The in-process engine's batch schedulers report into the server's
	// registry (llmms_batch_* series; see telemetry.RegisterBatchMetrics).
	bm := telemetry.RegisterBatchMetrics(tel.Registry)
	opts.Engine.SetBatchHooks(llm.BatchHooks{
		Step: bm.ObserveStep, Admit: bm.ObserveAdmission, Idle: bm.MarkIdle,
	})
	backend := opts.Backend
	if backend == nil {
		if opts.Fleet != nil {
			backend = opts.Fleet
		} else {
			backend = opts.Engine
		}
	}
	logger := opts.Logger
	if logger == nil {
		logger = telemetry.NopLogger()
	}
	tracer := telemetry.NewTracer("llmms")
	db, col, err := openSubstrate(opts, tel, tracer, logger)
	if err != nil {
		return nil, fmt.Errorf("server: open memory substrate: %w", err)
	}
	s := &Server{
		engine:   opts.Engine,
		backend:  backend,
		fleet:    opts.Fleet,
		tracer:   tracer,
		logger:   logger,
		sessions: session.NewStore(session.Options{}),
		docs:     col,
		ingestor: rag.NewIngestor(col, rag.ChunkOptions{}),
		memory:   session.NewMemoryGraph(),
		tel:      tel,
		pprofOn:  opts.EnablePprof,
		settings: DefaultSettings(),
		docIDs:   make(map[string]docInfo),
		mux:      http.NewServeMux(),
		db:       db,
		dataDir:  opts.DataDir,
	}
	if sv := opts.Serving; sv.CacheTTL > 0 {
		s.cache = qcache.New(qcache.Options{TTL: sv.CacheTTL})
		s.exportAdmissions()
	}
	if rt := opts.Routing; rt.TopK > 0 {
		s.predictor = router.NewPredictor(router.PredictorOptions{TopK: rt.TopK})
	}
	if opts.Serving.Coalesce {
		s.flights = qcache.NewGroup(0)
	}
	// NewGate returns nil for a non-positive bound, so the unlimited
	// default stays a nil no-op gate; its queue is 2×MaxInflight.
	s.gate = qcache.NewGate(opts.Serving.MaxInflight, 0,
		func(depth int) { s.tel.QueueDepth.Set(float64(depth)) })
	// The built-in readiness probe: the backend must expose at least one
	// model, or every query is doomed to fail.
	s.readyChecks = []readyCheck{{
		name: "models",
		check: func(context.Context) error {
			if len(s.engine.Profiles()) == 0 {
				return errors.New("model inventory is empty")
			}
			return nil
		},
	}}
	// Per-model fleet readiness: a model with every replica ejected
	// (open breaker or prober-marked unhealthy) makes the server unready
	// even though the process is alive and other models still serve.
	if s.fleet != nil {
		for _, model := range s.fleet.Models() {
			m := model
			s.readyChecks = append(s.readyChecks, readyCheck{
				name:  "fleet:" + m,
				check: func(context.Context) error { return s.fleet.Ready(m) },
			})
		}
	}
	if err := s.restoreState(); err != nil {
		return nil, err
	}
	s.routes()
	return s, nil
}

// exportAdmissions brings llmms_cache_admissions_total up to the cache's
// own admission counts at every scrape.
func (s *Server) exportAdmissions() {
	var mu sync.Mutex
	var admitted, rejected uint64
	s.tel.Registry.OnScrape(func() {
		mu.Lock()
		defer mu.Unlock()
		a, r := s.cache.Admissions()
		s.tel.CacheAdmissions.Add(float64(a-admitted), "admitted")
		s.tel.CacheAdmissions.Add(float64(r-rejected), "rejected")
		admitted, rejected = a, r
	})
}

func (s *Server) routes() {
	s.handle("GET /", s.handleUI)
	s.handle("GET /healthz", s.handleHealth)
	s.handle("GET /readyz", s.handleReady)
	s.handle("GET /metrics", s.tel.Handler().ServeHTTP)
	s.handle("GET /api/version", s.handleVersion)
	s.handle("POST /api/query", s.handleQuery)
	s.handle("POST /api/upload", s.handleUpload)
	s.handle("GET /api/documents", s.handleDocuments)
	s.handle("DELETE /api/documents/{id}", s.handleDeleteDocument)
	s.handle("GET /api/sessions", s.handleListSessions)
	s.handle("POST /api/sessions", s.handleCreateSession)
	s.handle("DELETE /api/sessions", s.handleClearSessions)
	s.handle("GET /api/sessions/{id}", s.handleGetSession)
	s.handle("DELETE /api/sessions/{id}", s.handleDeleteSession)
	s.handle("GET /api/models", s.handleModels)
	s.handle("GET /api/settings", s.handleGetSettings)
	s.handle("PUT /api/settings", s.handlePutSettings)
	s.handle("POST /api/configure", s.handleConfigure)
	s.handle("POST /api/feedback", s.handleFeedback)
	s.handle("GET /api/recall", s.handleRecall)
	s.handle("GET /api/gpu", s.handleGPU)
	if s.fleet != nil {
		s.handle("GET /api/fleet", s.handleFleet)
	}
	if s.predictor != nil {
		s.handle("GET /api/router", s.handleRouter)
	}
	s.handle("GET /api/traces", s.handleTraces)
	s.handle("GET /api/traces/{id}", s.handleTrace)
	if s.pprofOn {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// handle registers a handler wrapped with per-route instrumentation:
// llmms_http_requests_total{route,code} and
// llmms_http_request_duration_seconds{route}. The registration pattern
// itself is the route label — never a concrete path, so /api/sessions/{id}
// stays one series no matter how many sessions exist (bounded
// cardinality, same rule as internal/telemetry documents for models).
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := telemetry.NewResponseRecorder(w)
		h(rec, r)
		s.tel.HTTPRequests.Inc(pattern, strconv.Itoa(rec.Status))
		s.tel.HTTPLatency.Observe(time.Since(start).Seconds(), pattern)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Settings returns the current settings snapshot.
func (s *Server) Settings() Settings {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.settings
	st.EnabledModels = append([]string(nil), st.EnabledModels...)
	return st
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// apiError is the body of the uniform error envelope; see the package
// comment for the catalogue of codes.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]apiError{"error": {Code: code, Message: fmt.Sprintf(format, args...)}})
}

// maxJSONBody caps every JSON request body but an upload's. The largest is
// a query: a question plus at most one ephemeral document. Anything past a
// megabyte is a mistake or an attack, and decoding it unbounded would let
// one request balloon the heap.
const maxJSONBody = 1 << 20

// readJSON decodes a request's JSON body, capped at maxJSONBody, into v.
// A body it cannot use comes back as the error envelope to answer with: 413
// request_too_large past the cap, 400 invalid_json otherwise.
func readJSON(w http.ResponseWriter, body io.ReadCloser, v any) *outcome {
	err := json.NewDecoder(http.MaxBytesReader(w, body, maxJSONBody)).Decode(v)
	switch {
	case err == nil:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return &outcome{status: http.StatusRequestEntityTooLarge, code: "request_too_large",
			message: fmt.Sprintf("request body exceeds %d bytes", maxJSONBody)}
	}
	return &outcome{status: http.StatusBadRequest, code: "invalid_json", message: "invalid JSON: " + err.Error()}
}

// write answers a failed outcome's error envelope.
func (o *outcome) write(w http.ResponseWriter) { writeErr(w, o.status, o.code, "%s", o.message) }

// knownModels reports whether the engine serves every one of models, and
// answers 422 unknown_model for the first it does not.
func (s *Server) knownModels(w http.ResponseWriter, models ...string) bool {
	if m, ok := s.unknownModel(models...); ok {
		writeErr(w, http.StatusUnprocessableEntity, "unknown_model", "unknown model %q", m)
		return false
	}
	return true
}

// unknownModel returns the first of models the engine does not serve.
func (s *Server) unknownModel(models ...string) (string, bool) {
	profiles := s.engine.Profiles()
	for _, m := range models {
		if !slices.ContainsFunc(profiles, func(p llm.Profile) bool { return p.Name == m }) {
			return m, true
		}
	}
	return "", false
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"models":   len(s.engine.Profiles()),
		"sessions": s.sessions.Len(),
	})
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"version": Version})
}

// readyReport is the GET /readyz body: overall status plus one row per
// dependency check. Unlike every other non-2xx response, a 503 here
// carries this report rather than the error envelope — the report is the
// diagnosis, an envelope would just wrap it.
type readyReport struct {
	Status string       `json:"status"` // "ready" or "unready"
	Checks []checkState `json:"checks"`
}

type checkState struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// handleReady runs every readiness probe with a bounded deadline.
// Liveness (/healthz) answers "is the process serving"; readiness
// answers "can it do useful work" — a server whose backend lost its
// model inventory is alive but unready, and a load balancer should stop
// routing queries to it without restarting it.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	report := readyReport{Status: "ready", Checks: make([]checkState, 0, len(s.readyChecks))}
	for _, c := range s.readyChecks {
		st := checkState{Name: c.name, OK: true}
		if err := c.check(ctx); err != nil {
			st.OK = false
			st.Error = err.Error()
			report.Status = "unready"
		}
		report.Checks = append(report.Checks, st)
	}
	status := http.StatusOK
	if report.Status != "ready" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, report)
}

// handleFleet reports the replica pool's per-replica state — the
// operator view behind the llmms_fleet_* metrics: which replicas serve,
// which breakers are open, who carries how much in-flight load.
func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.fleet.Status())
}

// handleTraces lists recent completed query traces, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 && n <= 1000 {
			limit = n
		}
	}
	writeJSON(w, http.StatusOK, s.tel.Traces.List(limit))
}

// handleTrace returns one query's trace: its header and the distributed
// span tree (trace_id + spans), rendered from the trace's arena now —
// cache lookup, gate wait, the orchestration's rounds and chunks with
// attempts, scores, prunes, failures and the winner as their attributes,
// fleet replica calls, and daemon-side spans grafted back over the modeld
// wire protocol — and the decision log rendered from them.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.tel.Traces.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown_trace", "unknown trace %q (the store keeps the most recent %d)", id, s.tel.Traces.Cap())
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// uploadRequest is the JSON /api/upload payload (the browser reads the
// file client-side and posts its text, mirroring the paper's client-side
// parsing note in §7.3).
type uploadRequest struct {
	Filename string `json:"filename"`
	Content  string `json:"content"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large", "body too large or unreadable: %v", err)
		return
	}
	var req uploadRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_json", "invalid JSON: %v", err)
		return
	}
	if req.Filename == "" || strings.TrimSpace(req.Content) == "" {
		writeErr(w, http.StatusBadRequest, "missing_field", "filename and content are required")
		return
	}
	// Random as query ids are: cache drops key on it, and clocks can repeat.
	docID := "doc-" + telemetry.NewQueryID()[1:]
	n, err := s.ingestor.IngestFile(docID, req.Filename, []byte(req.Content))
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "ingest_failed", "ingest: %v", err)
		return
	}
	s.mu.Lock()
	s.docIDs[docID] = docInfo{Name: req.Filename, Chunks: n}
	s.ragRev++
	s.mu.Unlock()
	var vecs []embedding.Vector
	for i := 0; i < n; i++ {
		for _, c := range s.docs.Get(rag.ChunkID(docID, i)) {
			vecs = append(vecs, c.Embedding)
		}
	}
	s.tel.CacheDropped.Add(float64(s.cache.DropUpload(docID, vecs)), "upload")
	writeJSON(w, http.StatusCreated, map[string]any{"doc_id": docID, "chunks": n})
}

func (s *Server) handleDocuments(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	type doc struct {
		ID     string `json:"id"`
		Name   string `json:"name"`
		Chunks int    `json:"chunks"`
	}
	out := make([]doc, 0, len(s.docIDs))
	for id, info := range s.docIDs {
		out = append(out, doc{ID: id, Name: info.Name, Chunks: info.Chunks})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDeleteDocument(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.docIDs[id]
	delete(s.docIDs, id)
	if ok {
		s.ragRev++
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown_document", "unknown document %q", id)
		return
	}
	removed, err := s.ingestor.DeleteDocument(id)
	s.tel.CacheDropped.Add(float64(s.cache.DropDoc(id)), "delete")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "delete_failed", "delete document %q: %v", id, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted_chunks": removed})
}

func (s *Server) handleListSessions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sessions.List())
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Title string `json:"title"`
	}
	// The title is optional: a missing or unreadable body creates an
	// untitled session, but an oversized one is refused.
	if bad := readJSON(w, r.Body, &req); bad != nil && bad.code == "request_too_large" {
		bad.write(w)
		return
	}
	writeJSON(w, http.StatusCreated, s.sessions.Create(req.Title))
}

func (s *Server) handleClearSessions(w http.ResponseWriter, _ *http.Request) {
	s.sessions.Clear()
	writeJSON(w, http.StatusOK, map[string]string{"status": "cleared"})
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "unknown_session", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, sess)
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	if err := s.sessions.Delete(r.PathValue("id")); err != nil {
		writeErr(w, http.StatusNotFound, "unknown_session", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	type model struct {
		llm.Profile
		Loaded bool `json:"loaded"`
	}
	profiles := s.engine.Profiles()
	out := make([]model, len(profiles))
	for i, p := range profiles {
		out[i] = model{Profile: p, Loaded: s.engine.Loaded(p.Name)}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetSettings(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Settings())
}

func (s *Server) handlePutSettings(w http.ResponseWriter, r *http.Request) {
	var st Settings
	if bad := readJSON(w, r.Body, &st); bad != nil {
		bad.write(w)
		return
	}
	if err := st.Validate(); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "invalid_settings", "%v", err)
		return
	}
	if !s.knownModels(w, st.Model) || !s.knownModels(w, st.EnabledModels...) {
		return
	}
	s.mu.Lock()
	s.settings = st
	s.mu.Unlock()
	// Cached answers are keyed on the settings that produced them.
	s.tel.CacheDropped.Add(float64(s.cache.Flush()), "settings")
	writeJSON(w, http.StatusOK, st)
}

// handleConfigure implements the paper's §9.5 natural-language
// configuration interface: a plain instruction ("avoid slow models,
// prioritize qwen, keep responses under 200 words, use the bandit") is
// parsed into settings changes, applied, and echoed back with a
// clause-by-clause change log.
func (s *Server) handleConfigure(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Instruction string `json:"instruction"`
	}
	if bad := readJSON(w, r.Body, &req); bad != nil {
		bad.write(w)
		return
	}
	if strings.TrimSpace(req.Instruction) == "" {
		writeErr(w, http.StatusBadRequest, "missing_field", "instruction is required")
		return
	}
	d := router.ParseDirectives(req.Instruction)

	st := s.Settings()
	cfg := core.DefaultConfig(st.EnabledModels...)
	cfg.MaxTokens = st.MaxTokens
	applied, changeLog := d.Apply(cfg, s.engine.Profiles())

	st.EnabledModels = applied.Models
	st.MaxTokens = applied.MaxTokens
	st.Strategy = string(d.StrategyOr(core.Strategy(st.Strategy)))
	if len(applied.Models) > 0 {
		st.Model = applied.Models[0]
	}
	if err := st.Validate(); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "invalid_settings", "instruction produced invalid settings: %v", err)
		return
	}
	s.mu.Lock()
	s.settings = st
	s.mu.Unlock()
	s.tel.CacheDropped.Add(float64(s.cache.Flush()), "settings")
	writeJSON(w, http.StatusOK, map[string]any{
		"settings":   st,
		"changes":    changeLog,
		"understood": len(changeLog) > 0,
	})
}

// handleFeedback records one user rating of an answer (§9.5
// "Self-Improving Orchestration") as evidence for the routing index, the
// one learned model quality: the rated model is the one named, or the one
// that gave the session's latest answer, and the rating lands on the
// cluster of the session's latest question (router.Predictor.Rate). It is
// absorbed only when routing is on, a session is given and its question
// matches a cluster. Like every change to the index, it is written behind.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Model     string  `json:"model,omitempty"`
		SessionID string  `json:"session_id,omitempty"`
		Rating    float64 `json:"rating"`
	}
	if bad := readJSON(w, r.Body, &req); bad != nil {
		bad.write(w)
		return
	}
	if req.Rating < -1 || req.Rating > 1 {
		writeErr(w, http.StatusBadRequest, "invalid_rating", "rating must be in [-1, 1]")
		return
	}
	model, question := req.Model, ""
	if req.SessionID != "" {
		sess, err := s.sessions.Get(req.SessionID)
		if err != nil && model == "" {
			writeErr(w, http.StatusNotFound, "unknown_session", "%v", err)
			return
		}
		for i := len(sess.Messages) - 1; i >= 0; i-- {
			switch m := sess.Messages[i]; {
			case m.Role == session.RoleUser && question == "":
				question = m.Content
			case m.Role == session.RoleAssistant && model == "":
				model = m.Model
			}
		}
	}
	if model == "" {
		writeErr(w, http.StatusBadRequest, "missing_field", "model or session_id with an answered turn is required")
		return
	}
	if !s.knownModels(w, model) {
		return
	}
	absorbed := s.predictor != nil && s.predictor.Rate(question, model, req.Rating)
	writeJSON(w, http.StatusOK, map[string]any{"model": model, "absorbed": absorbed})
}

// handleRecall exposes the contextual memory graph (§9.5): the past
// exchanges — across all sessions — most relevant to ?q=, including
// one-hop graph neighbors.
func (s *Server) handleRecall(w http.ResponseWriter, r *http.Request) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		writeErr(w, http.StatusBadRequest, "missing_field", "q parameter is required")
		return
	}
	k := 5
	if v := r.URL.Query().Get("k"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 && n <= 50 {
			k = n
		}
	}
	hits := s.memory.Recall(q, k)
	if hits == nil {
		hits = []session.Recalled{}
	}
	writeJSON(w, http.StatusOK, hits)
}

func (s *Server) handleGPU(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Cluster().Stats())
}

// ListenAndServe runs the application layer on addr until ctx ends.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: s}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	case err := <-errCh:
		return err
	}
}
