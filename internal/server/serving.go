package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"llmms/internal/core"
	"llmms/internal/qcache"
	"llmms/internal/session"
	"llmms/internal/telemetry"
)

// ServingOptions configures the cross-query serving layer between the
// HTTP surface and the orchestrator: the answer cache, in-flight
// coalescing, and admission control. The zero value disables all three,
// leaving /api/query behavior-identical to a server without the layer.
type ServingOptions struct {
	// CacheTTL enables the two-tier answer cache when positive: exact
	// hits on the normalized (query, strategy, models, budget, RAG
	// fingerprint) key and semantic hits on near-duplicate queries are
	// replayed without orchestrating. Entries expire after this TTL and
	// the whole cache is flushed on settings changes and document
	// upload/delete.
	CacheTTL time.Duration
	// CacheCapacity bounds the cache entries (non-positive means
	// qcache.DefaultCapacity).
	CacheCapacity int
	// SemanticThreshold is the cosine similarity above which two
	// distinct queries share a cached answer (zero means
	// qcache.DefaultSemanticThreshold; > 1 disables the semantic tier).
	SemanticThreshold float64
	// Coalesce enables singleflight-style deduplication: identical
	// queries arriving while one is already orchestrating replay the
	// leader's SSE stream instead of fanning out again.
	Coalesce bool
	// CoalesceBuffer bounds the buffered frame history per flight in
	// bytes (non-positive means qcache.DefaultFlightBuffer); past the
	// bound a flight stops admitting new followers.
	CoalesceBuffer int
	// MaxInflight, when positive, bounds the total concurrent
	// orchestration weight (each query weighs its fan-out width, i.e.
	// its candidate model count). Requests beyond the bound wait in a
	// FIFO queue; beyond the queue they are shed with 429.
	MaxInflight int
	// MaxQueue bounds the admission wait queue (non-positive means
	// 2×MaxInflight).
	MaxQueue int
}

// retryAfterSeconds is the Retry-After hint on 429 responses. The queue
// drains at orchestration speed (hundreds of milliseconds to seconds),
// so a one-second backoff is the shortest honest hint.
const retryAfterSeconds = "1"

// cachedAnswer is the cache entry value: the leader's recorded stream —
// every frame up to, not including, the final result frame, exactly as
// its sseWriter rendered them, in one piece so a hit replays it in one
// write — plus the final result, whose frame is rebuilt per requester.
type cachedAnswer struct {
	stream []byte
	frames int // frames in stream
	result core.Result
}

// flightOutcome is what a coalescing leader hands its followers at
// Finish: the orchestration result on success, or the HTTP error it
// answered with when it never started streaming (admission shed,
// retrieval failure).
type flightOutcome struct {
	result     *core.Result
	status     int
	errBody    map[string]apiError
	retryAfter string
}

// servingKey derives the cache/coalescing key for a query, reporting
// whether the query is shareable at all. Context-dependent queries — a
// session with history, or an ephemeral document — produce prompts no
// other request reproduces, so they always bypass the serving layer.
func (s *Server) servingKey(req QueryRequest, strategy core.Strategy, models []string, maxTokens int, st Settings, summary string) (qcache.Key, bool) {
	if s.cache == nil && s.flights == nil {
		return qcache.Key{}, false
	}
	if summary != "" || strings.TrimSpace(req.EphemeralContext) != "" {
		return qcache.Key{}, false
	}
	ragFP := "-"
	if req.UseRAG {
		// The revision counter ties RAG-grounded answers to the document
		// set that produced them; upload/delete bumps it (and flushes the
		// cache outright — the counter additionally keeps stale keys from
		// ever colliding with fresh ones).
		ragFP = fmt.Sprintf("rag:%d:%s:%d", s.ragRevision(), req.DocID, st.RAGTopK)
	}
	scope := fmt.Sprintf("%s|%s|%d|%g|%g|%s",
		strategy, strings.Join(models, ","), maxTokens, st.Alpha, st.Beta, ragFP)
	return qcache.Key{Query: req.Query, Scope: scope}, true
}

// ragRevision returns the document-set revision (bumped on every upload
// and delete).
func (s *Server) ragRevision() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ragRev
}

// invalidateCache drops every cached answer — called whenever settings
// or the document set change, since either can change what any query
// would answer.
func (s *Server) invalidateCache() {
	s.cache.Flush()
}

// appendExchange persists one question/answer pair to a session (shared
// by the fresh, cached, and coalesced paths).
func (s *Server) appendExchange(sessID, query string, res core.Result) {
	if _, err := s.sessions.Append(sessID, session.Message{Role: session.RoleUser, Content: query}); err == nil {
		_, _ = s.sessions.Append(sessID, session.Message{
			Role: session.RoleAssistant, Content: res.Answer, Model: res.Model,
		})
	}
}

// serveCached answers a query from a cache entry: the recorded stream is
// replayed verbatim, then a fresh result frame is built so the requester
// keeps its own session and query identity, and the two leave in one
// write — a replay's only wait is its end. Cached replays do not feed the
// arena or the memory graph (they carry no new orchestration evidence)
// and produce no trace.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, ca *cachedAnswer, kind qcache.HitKind, sessID, query string) {
	tier, label := "exact", "HIT"
	if kind == qcache.Semantic {
		tier, label = "semantic", "SEMANTIC"
	}
	s.tel.CacheHits.Inc(tier)

	sw := newSSEWriter(w, s.tel, sessID, telemetry.NewQueryID(), label)
	defer sw.close(r.Context())
	sw.replay(ca.stream, ca.frames)
	if sw.result(ca.result) {
		s.appendExchange(sessID, query, ca.result)
	}
}

// followFlight serves a coalesced follower: the leader's orchestration
// frames are replayed verbatim as they arrive — byte-for-byte the
// leader's stream, flushed whenever the follower has caught up with the
// leader and is about to wait for it — then a fresh "result" frame is
// built from the shared outcome so the follower keeps its own session
// and query identity (mirroring serveCached), and the shared answer is
// appended to the follower's own session. When the leader failed before
// streaming anything, its HTTP error response is reproduced instead.
func (s *Server) followFlight(w http.ResponseWriter, r *http.Request, f *qcache.Flight, sessID, query string) {
	sw := newSSEWriter(w, s.tel, sessID, telemetry.NewQueryID(), "COALESCED")
	defer sw.close(r.Context())
	consumed := 0
	v, completed := f.Replay(r.Context(), func(fr qcache.Frame) error {
		sw.replay(fr.Data, 1)
		if consumed++; consumed >= f.Published() {
			sw.flush()
		}
		if sw.dead {
			return errClientGone
		}
		return nil
	})
	if !completed {
		return // follower's client left, or its write failed mid-replay
	}
	out, _ := v.(flightOutcome)
	if out.result != nil {
		if sw.result(*out.result) {
			s.appendExchange(sessID, query, *out.result)
		}
		return
	}
	if sw.opened {
		return // the leader's error frame was already replayed
	}
	// The leader never streamed (shed by admission, retrieval failure):
	// reproduce its plain HTTP error.
	status, body := out.status, out.errBody
	if status == 0 {
		status, body = http.StatusInternalServerError, errBody("query_failed", "coalesced leader produced no response")
	}
	if out.retryAfter != "" {
		w.Header().Set("Retry-After", out.retryAfter)
	}
	writeJSON(w, status, body)
}
