package server

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"llmms/internal/core"
	"llmms/internal/qcache"
	"llmms/internal/session"
)

// ServingOptions configures the cross-query serving layer between the
// HTTP surface and the orchestrator: the answer cache, in-flight
// coalescing, and admission control. The zero value disables all three,
// leaving /api/query behavior-identical to a server without the layer.
type ServingOptions struct {
	// CacheTTL enables the two-tier answer cache when positive: exact
	// hits on the normalized (query, strategy, models, budget, RAG
	// parameters) key and semantic hits on near-duplicate queries are
	// replayed without orchestrating. Entries expire after this TTL, the
	// whole cache is flushed on settings changes, and a document upload or
	// delete drops the RAG answers whose retrieval it changes. The cache
	// holds qcache.DefaultCapacity answers and serves a near-duplicate at
	// qcache.DefaultSemanticThreshold.
	CacheTTL time.Duration
	// Coalesce enables singleflight-style deduplication: identical
	// queries arriving while one is already orchestrating replay the
	// leader's SSE stream instead of fanning out again.
	Coalesce bool
	// MaxInflight, when positive, bounds the total concurrent
	// orchestration weight (each query weighs its fan-out width, i.e.
	// its candidate model count). Requests beyond the bound wait in a
	// FIFO queue of 2×MaxInflight places; beyond the queue they are shed
	// with 429.
	MaxInflight int
}

// retryAfterSeconds is the Retry-After hint on 429 responses. The queue
// drains at orchestration speed (hundreds of milliseconds to seconds),
// so a one-second backoff is the shortest honest hint.
const retryAfterSeconds = "1"

// cachedAnswer is the cache entry value: the leader's recorded stream —
// every frame up to, not including, the final result frame, exactly as
// its sseWriter rendered them, in one piece so a hit replays it in one
// write — plus the final result and its JSON, which each requester's
// result frame wraps in its own ids.
type cachedAnswer struct {
	stream     []byte
	frames     int // frames in stream
	result     core.Result
	resultJSON []byte // appendResultJSON of result; nil when it does not encode
}

// servingKey derives the cache/coalescing key for a query, reporting
// whether the query is shareable at all. Context-dependent queries — a
// session with history, or an ephemeral document — produce prompts no
// other request reproduces, so they always bypass the serving layer.
func (s *Server) servingKey(q *query) (qcache.Key, bool) {
	if s.cache == nil && s.flights == nil {
		return qcache.Key{}, false
	}
	if q.summary != "" || strings.TrimSpace(q.req.EphemeralContext) != "" {
		return qcache.Key{}, false
	}
	return qcache.Key{Query: q.req.Query, Scope: servingScope(q)}, true
}

// servingScope renders everything but the question that a query's answer
// depends on: strategy, models, λ_max, α, β and, for a RAG query, the
// document filter and top-k — no document revision: a write drops only the
// answers it makes stale. The bytes are fmt's "%s|%s|%d|%g|%g|%s" over
// them, with the models comma-joined and "-" or "rag:<doc>:<k>" last.
func servingScope(q *query) string {
	var buf [128]byte
	b := append(append(buf[:0], q.strategy...), '|')
	for i, m := range q.models {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, m...)
	}
	b = strconv.AppendInt(append(b, '|'), int64(q.st.MaxTokens), 10)
	b = strconv.AppendFloat(append(b, '|'), q.st.Alpha, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, '|'), q.st.Beta, 'g', -1, 64)
	if !q.req.UseRAG {
		return string(append(b, "|-"...))
	}
	b = append(append(append(b, "|rag:"...), q.req.DocID...), ':')
	return string(strconv.AppendInt(b, int64(q.st.RAGTopK), 10))
}

// grounding records what the query's document retrieval depended on, so
// that a later write drops its cached answer exactly when it changes it.
func grounding(q *query) *qcache.Grounding {
	g := &qcache.Grounding{Kth: math.Inf(1), Filter: q.req.DocID}
	for _, r := range q.retrieved {
		if doc, _ := r.Metadata["doc_id"].(string); !slices.Contains(g.Docs, doc) {
			g.Docs = append(g.Docs, doc)
		}
	}
	if n := len(q.retrieved); n == q.st.RAGTopK {
		// rag.Retrieve's borrowed vector of the question is Encode's, bit for bit.
		g.Kth, g.Query = q.retrieved[n-1].Distance, docsConfig.Encoder.Encode(q.req.Query)
	}
	return g
}

// ragRevision returns the document-set revision (bumped on every upload
// and delete).
func (s *Server) ragRevision() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ragRev
}

// appendExchange persists one question/answer pair to a session.
func (s *Server) appendExchange(sessID, query string, res core.Result) {
	_ = s.sessions.AppendAll(sessID,
		session.Message{Role: session.RoleUser, Content: query},
		session.Message{Role: session.RoleAssistant, Content: res.Answer, Model: res.Model})
}
