package telemetry

import "net/http"

// Options tunes a Telemetry bundle.
type Options struct {
	// TraceCapacity bounds the completed-query trace store (non-positive
	// means DefaultTraceCapacity).
	TraceCapacity int
	// MaxSeries caps the distinct label combinations per metric family
	// (non-positive means DefaultMaxSeries).
	MaxSeries int
	// MaxQueryBytes truncates the query text stored in traces
	// (non-positive means DefaultMaxQueryBytes).
	MaxQueryBytes int
}

// DefaultMaxQueryBytes bounds the query text retained per trace.
const DefaultMaxQueryBytes = 2048

// Telemetry bundles the LLM-MS instrument set: one registry, one trace
// store, and every named metric the platform records. Construct with
// New and share one instance per process — the server, the orchestrator
// recorder, and the modeld client all write into the same bundle.
//
// Metric names and labels (all label sets are bounded: strategies,
// model names from the configured inventory, fixed route patterns,
// fixed operation names, and HTTP status codes — never query text):
//
//	llmms_queries_total{strategy,outcome}            completed queries
//	llmms_query_duration_seconds{strategy}           query latency histogram
//	llmms_chunk_duration_seconds{model}              per-chunk generation latency
//	llmms_tokens_generated_total{model}              tokens generated
//	llmms_chunk_retries_total{model}                 retry attempts beyond first tries
//	llmms_model_failures_total{model}                models dropped after retry exhaustion
//	llmms_prunes_total{strategy}                     score-based prunes
//	llmms_score_duration_seconds{strategy}           per-round scoring pass compute time
//	llmms_query_traces                               traces currently retained (gauge)
//	llmms_http_requests_total{route,code}            requests by route pattern and status
//	llmms_http_request_duration_seconds{route}       per-route latency histogram
//	llmms_sse_streams_started_total                  /api/query streams opened
//	llmms_sse_streams_dropped_total                  streams the client abandoned
//	llmms_sse_frames_written_total                   SSE frames the ResponseWriter accepted (replays count the frames they carry)
//	llmms_sse_flushes_total                          SSE writer flushes (frames ÷ flushes = frames per write)
//	llmms_sse_encode_errors_total                    SSE frames refused by the encoder, plus streams lost to a failed write
//	llmms_cache_hits_total{tier}                     answer cache hits (tier: exact|semantic)
//	llmms_cache_misses_total                         answer cache lookups that missed
//	llmms_cache_lookup_duration_seconds              answer cache lookup latency
//	llmms_coalesced_queries_total                    queries served by replaying a leader in flight
//	llmms_admission_queue_depth                      requests parked in the admission queue (gauge)
//	llmms_admission_queue_wait_seconds               time spent waiting for an orchestration slot
//	llmms_admission_rejected_total                   requests shed with 429 at a full queue
//	llmms_stream_prefetch_tokens_total{model}        tokens already buffered when a round drained them
//	llmms_round_stall_seconds{strategy}              time a round waited on generation
//	llmms_stream_opens_total{model}                  persistent generation streams opened
//	llmms_stream_closes_total{model,reason}          streams closed (reason: done|pruned|early_exit|failed|query_end|error)
//	llmms_stream_fallbacks_total{model}              sessions degraded to per-round chunk calls
//	llmms_route_decisions_total{outcome}             predictive-routing decisions (outcome: topk|probe|full|fallback_cold|fallback_far|fallback_few_obs|fallback_variance)
//	llmms_route_probes_total{model}                  ε-probe inclusions of an otherwise-excluded model
//	llmms_route_width                                predicted fan-out width histogram
//	llmms_fleet_replica_state{model,replica,state}   replica state one-hot gauge (state: serving|half_open|open|unhealthy)
//	llmms_fleet_hedges_total{model,outcome}          hedged requests (outcome: fired|won)
//	llmms_fleet_breaker_transitions_total{model,replica,to}  circuit breaker transitions (to: open|half_open|closed)
//	modeld_client_requests_total{op,outcome}         daemon client requests by operation
//	modeld_client_request_duration_seconds{op}       daemon client request latency
//	modeld_client_chunk_duration_seconds{model,outcome}  daemon client chunk latency
//	modeld_client_truncated_streams_total{model}     streams ending without done:true
type Telemetry struct {
	Registry *Registry
	Traces   *TraceStore

	Queries       Counter
	QueryLatency  Histogram
	ChunkLatency  Histogram
	Tokens        Counter
	Retries       Counter
	ModelFailures Counter
	Prunes        Counter
	ScoreLatency  Histogram
	TracesStored  Gauge

	HTTPRequests    Counter
	HTTPLatency     Histogram
	SSEStreams      Counter
	SSEDropped      Counter
	SSEFrames       Counter
	SSEFlushes      Counter
	SSEEncodeErrors Counter

	StreamPrefetch  Counter
	RoundStall      Histogram
	StreamOpens     Counter
	StreamCloses    Counter
	StreamFallbacks Counter

	CacheHits      Counter
	CacheMisses    Counter
	CacheLookupLat Histogram
	Coalesced      Counter
	QueueDepth     Gauge
	QueueWait      Histogram
	Rejected       Counter

	RouteDecisions Counter
	RouteProbes    Counter
	RouteWidth     Histogram

	FleetReplicaState       Gauge
	FleetHedges             Counter
	FleetBreakerTransitions Counter

	ClientRequests  Counter
	ClientLatency   Histogram
	ClientChunkLat  Histogram
	ClientTruncated Counter

	maxQueryBytes int
}

// New builds a Telemetry bundle with every instrument registered.
func New(opts Options) *Telemetry {
	reg := NewRegistry()
	reg.SetMaxSeries(opts.MaxSeries)
	RegisterRuntimeMetrics(reg)
	maxQuery := opts.MaxQueryBytes
	if maxQuery <= 0 {
		maxQuery = DefaultMaxQueryBytes
	}
	return &Telemetry{
		Registry: reg,
		Traces:   NewTraceStore(opts.TraceCapacity),

		Queries: reg.Counter("llmms_queries_total",
			"Completed orchestrated queries by strategy and outcome.", "strategy", "outcome"),
		QueryLatency: reg.Histogram("llmms_query_duration_seconds",
			"End-to-end orchestration latency by strategy.", nil, "strategy"),
		ChunkLatency: reg.Histogram("llmms_chunk_duration_seconds",
			"Per-chunk generation call latency by model (retries included).", nil, "model"),
		Tokens: reg.Counter("llmms_tokens_generated_total",
			"Tokens generated by model.", "model"),
		Retries: reg.Counter("llmms_chunk_retries_total",
			"Generation retry attempts beyond each chunk's first try, by model.", "model"),
		ModelFailures: reg.Counter("llmms_model_failures_total",
			"Models dropped from a query after exhausting the retry budget.", "model"),
		Prunes: reg.Counter("llmms_prunes_total",
			"Models removed by score-based pruning, by strategy.", "strategy"),
		// Scoring passes run in microseconds once the fast path is warm;
		// the default latency buckets start at 5ms and would flatten the
		// whole distribution into the first bucket, so this histogram gets
		// a microsecond-resolution ladder. The top buckets exist to make a
		// regression (a pass sliding back toward re-encoding everything)
		// visible, which is the point of the per-round latency budget.
		ScoreLatency: reg.Histogram("llmms_score_duration_seconds",
			"Per-round scoring pass (embed + score) compute time by strategy.",
			[]float64{1e-6, 5e-6, 25e-6, 1e-4, 5e-4, 2.5e-3, 1e-2, 5e-2, 0.25, 1},
			"strategy"),
		TracesStored: reg.Gauge("llmms_query_traces",
			"Completed query traces currently retained."),

		StreamPrefetch: reg.Counter("llmms_stream_prefetch_tokens_total",
			"Tokens already generated and buffered client-side at the moment a round drained them — the pipelining overlap won, by model.", "model"),
		// Round stalls measure how long the orchestrator waited for
		// generation after the buffer ran dry. A healthy pipelined query
		// stalls in the microsecond-to-millisecond range after round one,
		// so this histogram uses the microsecond ladder shared with the
		// scoring pass.
		RoundStall: reg.Histogram("llmms_round_stall_seconds",
			"Time a round's slowest streamed drain waited on generation, by strategy.",
			[]float64{1e-6, 5e-6, 25e-6, 1e-4, 5e-4, 2.5e-3, 1e-2, 5e-2, 0.25, 1},
			"strategy"),
		StreamOpens: reg.Counter("llmms_stream_opens_total",
			"Persistent generation streams opened, by model.", "model"),
		StreamCloses: reg.Counter("llmms_stream_closes_total",
			"Persistent generation streams closed, by model and reason.", "model", "reason"),
		StreamFallbacks: reg.Counter("llmms_stream_fallbacks_total",
			"Generation sessions that degraded to per-round chunk calls after a stream error, by model.", "model"),

		HTTPRequests: reg.Counter("llmms_http_requests_total",
			"HTTP requests by route pattern and status code.", "route", "code"),
		HTTPLatency: reg.Histogram("llmms_http_request_duration_seconds",
			"HTTP request latency by route pattern.", nil, "route"),
		SSEStreams: reg.Counter("llmms_sse_streams_started_total",
			"Server-sent event streams opened by /api/query."),
		SSEDropped: reg.Counter("llmms_sse_streams_dropped_total",
			"SSE streams whose client disconnected before completion."),
		SSEFrames: reg.Counter("llmms_sse_frames_written_total",
			"SSE frames accepted by the response writer across all streams; a cache or coalesced replay counts the frames it carries."),
		SSEFlushes: reg.Counter("llmms_sse_flushes_total",
			"Times an SSE stream flushed its pending frames to the client; frames written divided by flushes is the coalescing factor."),
		SSEEncodeErrors: reg.Counter("llmms_sse_encode_errors_total",
			"SSE frames the encoder refused (NaN, unencodable result) plus streams abandoned on a failed write."),

		CacheHits: reg.Counter("llmms_cache_hits_total",
			"Answer cache hits by tier (exact or semantic).", "tier"),
		CacheMisses: reg.Counter("llmms_cache_misses_total",
			"Answer cache lookups that found no servable entry."),
		// Cache lookups are map probes plus at most one small vector
		// search; the default latency buckets start at 5ms and would
		// flatten the whole distribution, so this histogram gets the same
		// microsecond ladder as the scoring pass.
		CacheLookupLat: reg.Histogram("llmms_cache_lookup_duration_seconds",
			"Answer cache lookup (exact + semantic probe) latency.",
			[]float64{1e-6, 5e-6, 25e-6, 1e-4, 5e-4, 2.5e-3, 1e-2, 5e-2, 0.25, 1}),
		Coalesced: reg.Counter("llmms_coalesced_queries_total",
			"Queries served by replaying an identical in-flight leader's stream."),
		QueueDepth: reg.Gauge("llmms_admission_queue_depth",
			"Requests currently parked in the admission wait queue."),
		QueueWait: reg.Histogram("llmms_admission_queue_wait_seconds",
			"Time spent waiting for an orchestration slot before running.", nil),
		Rejected: reg.Counter("llmms_admission_rejected_total",
			"Requests shed with 429 because the admission queue was full."),

		// Routing labels are bounded: a fixed outcome vocabulary and the
		// configured model inventory. The width histogram's buckets cover
		// realistic fan-outs (1–12 models); exact integer buckets keep the
		// avg-width estimate faithful at small widths.
		RouteDecisions: reg.Counter("llmms_route_decisions_total",
			"Predictive-routing decisions by outcome (topk, probe, full, fallback_cold, fallback_far, fallback_few_obs, fallback_variance).",
			"outcome"),
		RouteProbes: reg.Counter("llmms_route_probes_total",
			"ε-probe inclusions of an otherwise-excluded model in a routed fan-out, by model.", "model"),
		RouteWidth: reg.Histogram("llmms_route_width",
			"Fan-out width (model count) the routing decision produced.",
			[]float64{1, 2, 3, 4, 5, 6, 8, 12}),

		// Fleet label cardinality is bounded by deployment shape: models ×
		// replicas × a fixed state/transition vocabulary. Replica IDs come
		// from configuration, never from requests.
		FleetReplicaState: reg.Gauge("llmms_fleet_replica_state",
			"One-hot replica state by model and replica (state: serving, half_open, open, unhealthy).",
			"model", "replica", "state"),
		FleetHedges: reg.Counter("llmms_fleet_hedges_total",
			"Tail-latency hedges by model and outcome (fired: second replica launched; won: hedge finished first).",
			"model", "outcome"),
		FleetBreakerTransitions: reg.Counter("llmms_fleet_breaker_transitions_total",
			"Per-replica circuit breaker transitions by destination state (open, half_open, closed).",
			"model", "replica", "to"),

		ClientRequests: reg.Counter("modeld_client_requests_total",
			"Daemon client requests by operation and outcome.", "op", "outcome"),
		ClientLatency: reg.Histogram("modeld_client_request_duration_seconds",
			"Daemon client request latency by operation.", nil, "op"),
		ClientChunkLat: reg.Histogram("modeld_client_chunk_duration_seconds",
			"Daemon client GenerateChunk latency by model and outcome (ok, error, canceled).", nil, "model", "outcome"),
		ClientTruncated: reg.Counter("modeld_client_truncated_streams_total",
			"Generation streams that ended without a done:true line, by model.", "model"),

		maxQueryBytes: maxQuery,
	}
}

// Handler serves the bundle's registry at GET /metrics.
func (t *Telemetry) Handler() http.Handler { return t.Registry.Handler() }

// ResponseRecorder wraps an http.ResponseWriter to capture the status
// code for instrumentation while passing Flush through, so SSE and
// NDJSON streaming handlers keep working behind the middleware.
type ResponseRecorder struct {
	http.ResponseWriter
	Status int
	wrote  bool
}

// NewResponseRecorder wraps w; an unset status reads as 200.
func NewResponseRecorder(w http.ResponseWriter) *ResponseRecorder {
	return &ResponseRecorder{ResponseWriter: w, Status: http.StatusOK}
}

// WriteHeader records the first explicit status and forwards it.
func (w *ResponseRecorder) WriteHeader(code int) {
	if !w.wrote {
		w.Status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it can stream.
func (w *ResponseRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *ResponseRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }
