package server

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"llmms/internal/core"
	"llmms/internal/jsonwire"
	"llmms/internal/qcache"
	"llmms/internal/rag"
	"llmms/internal/router"
	"llmms/internal/session"
	"llmms/internal/telemetry"
	"llmms/internal/vectordb"
)

// This file is the /api/query path (DESIGN.md "The query path"): one
// query value, the steps of handleQuery acting on it in order — each lets
// the next one run or settles the query by setting its outcome — and
// finish, the one unwind every exit goes through.

// QueryRequest is the /api/query payload.
type QueryRequest struct {
	// Query is the user's question. Required.
	Query string `json:"query"`
	// SessionID continues an existing session; empty creates a fresh one.
	SessionID string `json:"session_id,omitempty"`
	// Strategy overrides the default ("oua", "mab", "hybrid", "single").
	Strategy string `json:"strategy,omitempty"`
	// Model overrides the single-model default.
	Model string `json:"model,omitempty"`
	// MaxTokens overrides λ_max for this query; 0 keeps the settings' and
	// a negative one is refused.
	MaxTokens int `json:"max_tokens,omitempty"`
	// UseRAG augments the prompt with retrieved document chunks.
	UseRAG bool `json:"use_rag,omitempty"`
	// DocID restricts retrieval to one uploaded document.
	DocID string `json:"doc_id,omitempty"`
	// EphemeralContext is document text that exists solely for this
	// query-response cycle (§6.5's privacy posture): it is chunked,
	// embedded, and retrieved against in a throwaway in-memory
	// collection that is discarded when the response is delivered —
	// nothing is retained server-side.
	EphemeralContext string `json:"ephemeral_context,omitempty"`
}

// outcome is how a query ended, for everyone answered with it: the
// requester and, when it led a flight, the followers behind it.
type outcome struct {
	result     *core.Result // the answer; nil on every failure
	resultJSON []byte       // its JSON, encoded once; nil when it does not encode
	// A failure's error envelope. status is the HTTP status where no
	// stream had opened, zero where the error is a frame of the stream.
	status        int
	code, message string
}

// query is one /api/query request. It lives on handleQuery's stack, so no
// step may store its address anywhere that outlives the request.
type query struct {
	w http.ResponseWriter
	r *http.Request

	// Set by resolve. st is the request's own copy of the settings, its
	// strategy, model and max_tokens overrides applied.
	req      QueryRequest
	st       Settings
	strategy core.Strategy
	models   []string // the configured pool; one model for "single"
	sessID   string   // "" for an anonymous request until its stream opens
	summary  string

	// Set by begin. ctx carries root. ids holds the head's per-request
	// values — trace, session and query id — in one array the head keeps.
	ids      []string
	ctx      context.Context
	root     *telemetry.Span
	key      qcache.Key
	servable bool

	// What the steps acquired, for finish to return.
	flight   *qcache.Flight // led by this request
	admitted int            // gate weight held
	sw       *sseWriter
	obs      *telemetry.QueryObserver

	xcache []string          // X-Cache value, nil for none
	pred   router.Prediction // zero when route made none
	routed []string          // the models orchestration fans out to

	// Set by retrieve: the cache generation read before the corpus was, and
	// the uploaded documents' chunks a RAG query retrieved.
	gen       uint64
	retrieved []vectordb.Result

	out  outcome
	err  error // what the root span ends with
	gone bool  // the requester left before any response began: out is for followers only
}

// fail settles the query with an error envelope; false is a step's "stop here".
func (q *query) fail(err error, status int, code, format string, args ...any) bool {
	q.err, q.out = err, outcome{status: status, code: code, message: fmt.Sprintf(format, args...)}
	return false
}

// handleQuery answers one query with an SSE stream of events ending in a
// "result" frame — orchestrated, replayed from the answer cache (X-Cache:
// HIT/SEMANTIC) or from an identical in-flight leader (COALESCED) — or
// sheds it with 429 when admission is full.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := query{w: w, r: r}
	defer s.finish(&q)
	if !s.resolve(&q) {
		return
	}
	s.begin(&q)
	if s.fromCache(&q) || s.fromFlight(&q) {
		return
	}
	s.route(&q)
	if !s.admit(&q) {
		return
	}
	if prompt, ok := s.retrieve(&q); ok {
		s.orchestrate(&q, prompt)
	}
}

// resolve decodes and validates the request and fixes what it asks for:
// strategy, model pool (for single, a model the engine serves), λ_max,
// session. An anonymous request's summary is empty by definition and its
// session waits for openStream, so one that is shed or fails leaves none
// behind.
func (s *Server) resolve(q *query) bool {
	if bad := readQuery(q.w, q.r, &q.req); bad != nil {
		q.out = *bad
		return false
	}
	req := &q.req
	if strings.TrimSpace(req.Query) == "" {
		return q.fail(nil, http.StatusBadRequest, "missing_field", "query is required")
	}
	q.st = s.Settings()
	q.st.Strategy = cmp.Or(req.Strategy, q.st.Strategy)
	q.st.Model = cmp.Or(req.Model, q.st.Model)
	switch {
	case req.MaxTokens < 0:
		return q.fail(nil, http.StatusBadRequest, "invalid_max_tokens", "max_tokens must be positive, got %d", req.MaxTokens)
	case req.MaxTokens > 0:
		q.st.MaxTokens = req.MaxTokens
	}
	var err error
	if q.strategy, err = core.ParseStrategy(q.st.Strategy); err != nil {
		return q.fail(err, http.StatusBadRequest, "invalid_strategy", "%v", err)
	}
	q.models = q.st.EnabledModels
	if q.strategy == core.StrategySingle {
		// Refused before any stream opens; only single pays for the check.
		if m, ok := s.unknownModel(q.st.Model); ok {
			return q.fail(nil, http.StatusUnprocessableEntity, "unknown_model", "unknown model %q", m)
		}
		q.models = []string{q.st.Model}
	}
	if q.sessID = req.SessionID; q.sessID != "" {
		if q.summary, _, err = s.sessions.Context(q.sessID, 0); err != nil {
			return q.fail(err, http.StatusNotFound, "unknown_session", "%v", err)
		}
	}
	return true
}

// maxPooledQuery bounds the /api/query bodies decoded in a pooled buffer,
// and so the buffers the pool keeps: a longer body — one with an ephemeral
// document, mostly — goes through readJSON as it arrives.
const maxPooledQuery = 64 << 10

// queryBuf is pooled storage for one /api/query body: the body, and the
// scratch its keys and strings are unescaped into.
type queryBuf struct{ body, key, str []byte }

var queryBufPool = sync.Pool{New: func() any { return &queryBuf{body: make([]byte, 0, 1<<10)} }}

// readQuery decodes the request's body into req, answering as readJSON
// would. A body shorter than maxPooledQuery is read into a pooled buffer
// and decoded there when it is the object a client writes (decode); every
// other body — longer, declined, or cut by a failed read — goes through
// readJSON over the same bytes, which stays the reference
// (FuzzQueryRequest).
func readQuery(w http.ResponseWriter, r *http.Request, req *QueryRequest) *outcome {
	if r.ContentLength >= maxPooledQuery {
		return readQueryJSON(w, r.Body, req)
	}
	qb := queryBufPool.Get().(*queryBuf)
	defer queryBufPool.Put(qb)
	whole, err := qb.read(r.Body)
	if whole && qb.decode(req) {
		return nil
	}
	rest := io.Reader(r.Body)
	if err != nil {
		rest = errReader{err}
	}
	return readQueryJSON(w, io.NopCloser(io.MultiReader(bytes.NewReader(qb.body), rest)), req)
}

// readQueryJSON is readJSON into req; only the fallback pays for the
// request value it moves to the heap.
func readQueryJSON(w http.ResponseWriter, body io.ReadCloser, req *QueryRequest) *outcome {
	var v QueryRequest
	bad := readJSON(w, body, &v)
	*req = v
	return bad
}

// errReader replays the error a read of the body ended with.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// read fills qb.body with body's bytes. It reports whether it read all of
// them, to io.EOF, before the buffer held maxPooledQuery bytes — it never
// grows past that — and the error of a read that failed before.
func (qb *queryBuf) read(body io.Reader) (bool, error) {
	b := qb.body[:0]
	defer func() { qb.body = b }()
	for {
		if len(b) == cap(b) {
			if cap(b) >= maxPooledQuery {
				return false, nil
			}
			b = slices.Grow(b, cap(b))
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		switch {
		case err == io.EOF:
			return true, nil
		case err != nil:
			return false, err
		}
	}
}

// decode reads qb.body into req without reflection when it is an object
// of QueryRequest's members under their own names, each value of its
// field's type, and nothing after it — exactly as encoding/json would, a
// repeated member's last value winning. It reports false, leaving req
// zero, for anything else: another key (encoding/json matches keys
// without regard to case and skips unknown ones), a null, a number that is
// not a plain integer, invalid UTF-8, trailing bytes.
func (qb *queryBuf) decode(req *QueryRequest) bool {
	*req = QueryRequest{}
	s := jsonwire.Scanner{B: qb.body, Key: qb.key}
	str := func(dst *string) (ok bool) {
		qb.str, ok = s.Str(qb.str[:0])
		*dst = string(qb.str)
		return ok
	}
	ok := s.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "query":
			return str(&req.Query)
		case "session_id":
			return str(&req.SessionID)
		case "strategy":
			return str(&req.Strategy)
		case "model":
			return str(&req.Model)
		case "max_tokens":
			req.MaxTokens, ok = s.Int()
			return ok
		case "use_rag":
			req.UseRAG, ok = s.Bool()
			return ok
		case "doc_id":
			return str(&req.DocID)
		case "ephemeral_context":
			return str(&req.EphemeralContext)
		}
		return false
	})
	qb.key = s.Key
	if !ok || !s.End() {
		*req = QueryRequest{}
		return false
	}
	return true
}

// begin opens the root span — before the serving-layer probe, so the trace
// times cache lookup and admission wait too — and derives the serving key.
// The root stays open until finish, which keeps every span handle of the
// request good; only an orchestration's tree is offered to the trace store.
func (s *Server) begin(q *query) {
	q.ctx, q.root = s.tracer.StartRoot(q.r.Context(), "query")
	q.root.SetAttr("strategy", string(q.strategy))
	q.ids = []string{q.root.TraceID(), "", ""}
	q.w.Header()["X-Trace-Id"] = q.ids[0:1:1]
	q.key, q.servable = s.servingKey(q)
}

// openStream returns the query's SSE writer, making it on first use —
// and with it, for an anonymous request, the session its headers announce.
func (s *Server) openStream(q *query) *sseWriter {
	if q.sw == nil {
		if q.sessID == "" {
			q.sessID = s.sessions.Create("").ID
		}
		q.ids[1], q.ids[2] = q.sessID, telemetry.NewQueryID()
		q.sw = newSSEWriter(q.w, s.tel, q.ids[1:3:3], q.xcache)
	}
	return q.sw
}

// fromCache settles the query with a cached answer — before retrieval and
// prompt assembly, so a hit skips every per-query cost: the recorded stream
// is queued verbatim and leaves with the result frame in one write. A replay
// is no new evidence: it feeds no routing index or memory graph and stores
// no trace.
func (s *Server) fromCache(q *query) bool {
	if !q.servable || s.cache == nil {
		return false
	}
	_, span := telemetry.StartSpan(q.ctx, "cache.lookup")
	start := time.Now()
	v, kind := s.cache.Get(q.key)
	s.tel.CacheLookupLat.Observe(time.Since(start).Seconds())
	tier := cacheTier[kind]
	span.SetAttr("tier", tier)
	span.End(nil)
	if kind == qcache.Miss {
		s.tel.CacheMisses.Inc()
		return false
	}
	q.root.SetAttr("cache", tier)
	s.tel.CacheHits.Inc(tier)
	q.xcache = cacheHeader[kind]
	ca := v.(*cachedAnswer)
	s.openStream(q).replay(ca.stream, ca.frames)
	q.out.result, q.out.resultJSON = &ca.result, ca.resultJSON
	return true
}

// fromFlight joins the flight of identical in-flight queries. A leader
// (or a bypass) goes on to orchestrate; a follower is settled here: the
// leader's frames are replayed verbatim as they arrive — flushed whenever
// it has caught up and is about to wait — and the leader's outcome, the
// shared result or the HTTP error of a leader that never streamed, is its.
func (s *Server) fromFlight(q *query) bool {
	if !q.servable || s.flights == nil {
		return false
	}
	key := q.key.ID()
	if q.req.UseRAG {
		// The flight key keeps the document revision the cache key drops: a
		// request after a write never replays a leader that retrieved before.
		key += "|rev" + strconv.Itoa(s.ragRevision())
	}
	f, role := s.flights.Join(key)
	if role != qcache.RoleFollower {
		if role == qcache.RoleLeader {
			q.flight = f
			q.root.SetAttr("coalesce_role", "leader")
		}
		return false
	}
	s.tel.Coalesced.Inc()
	q.root.SetAttr("coalesce_role", "follower")
	q.xcache = xcacheCoalesced
	consumed := 0
	v, completed := f.Replay(q.r.Context(), func(fr qcache.Frame) error {
		sw := s.openStream(q)
		sw.replay(fr.Data, 1)
		if consumed++; consumed >= f.Published() {
			sw.flush()
		}
		if sw.dead {
			return errClientGone
		}
		return nil
	})
	out, _ := v.(outcome)
	switch {
	case !completed: // this client left, or its write failed mid-replay
	case out.result != nil:
		q.out = out
	case q.sw != nil: // the leader's error frame was already replayed
	case out.status != 0: // the leader never streamed (shed, retrieval failure)
		q.out = out
	default:
		q.fail(nil, http.StatusInternalServerError, "query_failed", "coalesced leader produced no response")
	}
	return true
}

// route narrows the fan-out to the predicted top-k models when the
// cluster index is confident — before admission, so the gate acquires the
// width the query actually uses — and reports the decision in X-Route
// either way. The serving key was computed on the configured pool on
// purpose: cache keys stay stable while routing state evolves.
func (s *Server) route(q *query) {
	q.routed = q.models
	if s.predictor == nil || q.strategy == core.StrategySingle {
		return
	}
	_, span := telemetry.StartSpan(q.ctx, "route.predict")
	q.pred = s.predictor.Predict(q.req.Query, q.models)
	span.SetAttr("outcome", q.pred.Outcome)
	span.SetInt("cluster", q.pred.Cluster)
	span.SetFloat("similarity", q.pred.Similarity)
	span.SetList("models", q.pred.Models)
	span.End(nil)
	s.tel.RouteDecisions.Inc(q.pred.Outcome)
	s.tel.RouteWidth.Observe(float64(len(q.pred.Models)))
	if q.pred.Probe != "" {
		s.tel.RouteProbes.Inc(q.pred.Probe)
	}
	q.w.Header()["X-Route"] = []string{q.pred.Outcome + ":" + strconv.Itoa(len(q.pred.Models))}
	if q.pred.Routed {
		q.routed = q.pred.Models
	}
}

// admit takes the query's weight at the gate: orchestration fans out one
// generation stream per candidate model, so a query weighs its routed
// model count.
func (s *Server) admit(q *query) bool {
	if s.gate == nil {
		return true
	}
	_, span := telemetry.StartSpan(q.ctx, "gate.wait")
	span.SetInt("weight", len(q.routed))
	start := time.Now()
	err := s.gate.Acquire(q.r.Context(), len(q.routed))
	s.tel.QueueWait.Observe(time.Since(start).Seconds())
	span.End(err)
	switch {
	case err == nil:
		q.admitted = len(q.routed)
		return true
	case errors.Is(err, qcache.ErrOverloaded):
		s.tel.Rejected.Inc()
		q.fail(err, http.StatusTooManyRequests, "overloaded", "server at orchestration capacity; retry shortly")
	default:
		// The client gave up while queued; what its followers inherit is
		// transient load, not a failed query, so they get the retryable
		// envelope and nothing is written to the dead connection.
		q.gone = true
		q.fail(err, http.StatusServiceUnavailable, "overloaded", "coalesced leader canceled while queued; retry shortly")
	}
	return false
}

// retrieve builds the contextual prompt: session summary, retrieved
// chunks of the uploaded and the ephemeral documents, the question.
func (s *Server) retrieve(q *query) (string, bool) {
	var found []vectordb.Result
	// Read before the corpus is: a write that lands from here on keeps a RAG
	// answer out of the cache (qcache.Cache.PutAt).
	q.gen = s.cache.Gen()
	if q.req.UseRAG && s.docs.Count() > 0 {
		_, span := telemetry.StartSpan(q.ctx, "retrieve")
		results, err := rag.Retrieve(s.docs, q.req.Query, q.st.RAGTopK, q.req.DocID)
		span.SetInt("chunks", len(results))
		span.End(err)
		if err != nil {
			return "", q.fail(err, http.StatusInternalServerError, "retrieval_failed", "retrieval: %v", err)
		}
		found, q.retrieved = results, results
	}
	if strings.TrimSpace(q.req.EphemeralContext) != "" {
		results, err := retrieveEphemeral(q.req.EphemeralContext, q.req.Query, q.st.RAGTopK)
		if err != nil {
			return "", q.fail(err, http.StatusUnprocessableEntity, "ephemeral_context", "ephemeral context: %v", err)
		}
		found = append(found, results...)
	}
	chunks := make([]string, len(found))
	for i, res := range found {
		chunks[i] = res.Text
	}
	return rag.BuildPrompt(rag.PromptParts{Summary: q.summary, Chunks: chunks, Question: q.req.Query}), true
}

// orchestrate runs the query over the routed models, streaming its events,
// and on success feeds what learns from an orchestration: the routing
// index (fallback runs are exactly what builds a cluster toward
// confidence), the memory graph and the cache.
func (s *Server) orchestrate(q *query, prompt string) {
	// The stream context is cancelable independently of the request: a
	// write failure (dead client) cancels it so the orchestration stops
	// instead of generating into a closed socket. A coalescing leader is
	// also detached from its own connection — WithoutCancel keeps the
	// context's values, so its spans still join the trace — and its
	// disconnect abandons the run only when no follower drafts behind it.
	flight, base := q.flight, q.ctx
	if flight != nil {
		base = context.WithoutCancel(q.ctx)
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	abandon := func() {
		if flight == nil || flight.Followers() == 0 {
			cancel()
		}
	}
	if flight != nil {
		stopWatch := context.AfterFunc(q.r.Context(), abandon)
		defer stopWatch()
	}
	if s.cache != nil || s.flights != nil || s.gate != nil {
		q.xcache = xcacheMiss
	}
	sw := s.openStream(q)
	// Followers and the cache consume the frames even when the leader's
	// own client is gone — all but the result frame, which each requester
	// gets rebuilt around its own session and query ids.
	cacheable := q.servable && s.cache != nil
	sw.record = cacheable || flight != nil
	if flight != nil {
		// A recording writer never rewrites a byte it has rendered, so the
		// followers read the frames where they are (see sseWriter.tee).
		sw.tee = func(event string, frame []byte) {
			flight.Publish(qcache.Frame{Event: event, Data: frame[:len(frame):len(frame)]})
		}
	}
	sw.onDead = abandon

	q.obs = s.tel.StartQuery(sw.queryID, string(q.strategy), q.req.Query)
	octx, span := telemetry.StartSpan(ctx, "orchestrate")
	q.obs.BindSpans(q.root, span)
	code := "invalid_config"
	var res core.Result
	oc, err := core.New(s.backend, s.config(q))
	if err == nil {
		code = "query_failed"
		res, err = oc.Run(octx, q.strategy, prompt)
	}
	span.End(err)
	if err != nil {
		if errors.Is(err, core.ErrAllModelsFailed) {
			code = "all_models_failed"
		}
		q.fail(err, 0, code, "%s", err.Error())
		return
	}
	if q.pred.Outcome != "" {
		s.predictor.Observe(q.req.Query, res)
	}
	s.memory.Add(session.Exchange{
		SessionID: q.sessID, Question: q.req.Query, Answer: res.Answer,
		Model: res.Model, Time: time.Now(),
	})
	q.out.result, q.out.resultJSON = &res, sw.encodeResult(&res)
	switch {
	case !cacheable:
	case !q.req.UseRAG:
		s.cache.Put(q.key, sw.recorded(res))
	case !s.cache.PutAt(q.key, sw.recorded(res), q.gen, grounding(q)):
		s.tel.CacheRefused.Inc()
	}
}

// config is the orchestrator's configuration for the query: its routed
// models and settings, and the stream and observer its events go to.
func (s *Server) config(q *query) core.Config {
	cfg := core.DefaultConfig(q.routed...)
	cfg.MaxTokens = q.st.MaxTokens
	cfg.Alpha, cfg.Beta = q.st.Alpha, q.st.Beta
	if q.pred.Routed {
		// Warm-start the bandit from the cluster's reward history; the
		// priors compensate for the exploration the narrowed pool skips.
		cfg.Priors = q.pred.Priors
	}
	sw, obs := q.sw, q.obs // not q: it lives on handleQuery's stack
	cfg.BeforeWait = sw.flush
	cfg.OnEvent = func(ev core.Event) {
		sw.event(ev)
		obs.RecordEvent(ev)
	}
	return cfg
}

// deliver ends the stream with the requester's own result frame around the
// shared answer, and appends the exchange iff the connection took it; the
// frame leaves with the end of the body, so a session's next turn sees it.
func (s *Server) deliver(q *query) {
	if s.openStream(q).result(q.out.result, q.out.resultJSON) {
		s.appendExchange(q.sessID, q.req.Query, *q.out.result)
	}
}

// finish is the one unwind of handleQuery. In order: the root span ends
// and an orchestration's trace is stored and logged, so it is fetchable by
// the time the client reads its result; the requester is answered; what
// the query held goes back — outcome to the followers, weight to the gate,
// writer to the pool.
func (s *Server) finish(q *query) {
	q.root.End(q.err)
	if q.obs != nil {
		s.logQuery(q.obs.Finish(q.err))
	}
	switch out := q.out; {
	case out.result != nil:
		s.deliver(q)
	case out.code == "" || q.gone: // nothing left to say, or nobody to say it to
	case q.sw != nil:
		q.sw.fail(out.code, out.message)
	default:
		if out.code == "overloaded" { // the one retryable code, for a leader and its followers alike
			q.w.Header()["Retry-After"] = retryAfter
		}
		writeErr(q.w, out.status, out.code, "%s", out.message)
	}
	if q.flight != nil {
		q.flight.Finish(q.out)
		if q.sw != nil && q.flight.Followers() > 0 {
			// Followers may still be replaying frames and the answer out of
			// the writer's buffer, so it must not be reused; none can join
			// after Finish.
			q.sw.buf = nil
		}
	}
	if q.admitted > 0 {
		s.gate.Release(q.admitted)
	}
	if q.sw != nil {
		q.sw.close(q.r.Context())
	}
}

// A lookup result's span and metric label, and its X-Cache value.
var (
	cacheTier   = [...]string{qcache.Miss: "miss", qcache.Exact: "exact", qcache.Semantic: "semantic"}
	cacheHeader = [...][]string{qcache.Exact: xcacheHit, qcache.Semantic: xcacheSemantic}
)

// logQuery emits the per-query structured log line: Info for normal
// completions, Warn for failures, degraded answers (a model lost, a stream
// fallen back) and queries whose span tree exceeded the slow-query
// threshold. A logger that will drop the line is not handed its attributes.
func (s *Server) logQuery(tr telemetry.QueryTrace) {
	level, msg := slog.LevelInfo, "query"
	switch {
	case tr.Outcome != "ok":
		level, msg = slog.LevelWarn, "query failed"
	case tr.Failed != "" || tr.Fallback != "":
		level, msg = slog.LevelWarn, "query degraded"
	case tr.Elapsed >= slowQuery:
		level, msg = slog.LevelWarn, "slow query"
	}
	if !s.logger.Enabled(context.Background(), level) {
		return
	}
	attrs := []any{
		"query_id", tr.ID,
		"trace_id", tr.TraceID,
		"strategy", tr.Strategy,
		"outcome", tr.Outcome,
		"elapsed", tr.Elapsed,
		"winner", tr.Winner,
		"tokens", tr.TokensUsed,
		"spans", tr.SpanCount,
	}
	if tr.Outcome != "ok" {
		attrs = append(attrs, "err", tr.Error)
	}
	if tr.Failed != "" || tr.Fallback != "" {
		attrs = append(attrs, "failed", tr.Failed, "failed_reason", tr.FailedReason, "fallback", tr.Fallback)
	}
	s.logger.Log(context.Background(), level, msg, attrs...)
}

// retrieveEphemeral chunks and embeds text in a throwaway one-shard
// collection, retrieves the top-k chunks for the query, and lets the
// collection go out of scope — the §6.5 "discarded immediately after
// response delivery" contract, enforced structurally rather than by
// cleanup code.
func retrieveEphemeral(text, query string, topK int) ([]vectordb.Result, error) {
	db := vectordb.New()
	col, err := db.CreateCollection("ephemeral", vectordb.CollectionConfig{Shards: 1})
	if err != nil {
		return nil, err
	}
	if _, err := rag.NewIngestor(col, rag.ChunkOptions{}).IngestText("ephemeral", "ephemeral", text); err != nil {
		return nil, err
	}
	return rag.Retrieve(col, query, topK, "")
}
