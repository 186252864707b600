package server

import (
	"net/http"

	"llmms/internal/router"
	"llmms/internal/session"
)

// Predictive routing (DESIGN.md "Predictive routing"): with
// Options.Routing.TopK set, the server keeps a router.Predictor — an
// online query-embedding cluster index with per-(cluster, model) reward
// history — and consults it on every multi-model query before admission.
// A confident prediction narrows the fan-out to the top-k models (plus
// the occasional ε-probe), and the narrowed width is what the Gate
// acquires, so admission capacity gains are actually realized. Every
// completed orchestration and every user feedback rating trains the
// index; with Options.DataDir the cluster collection is durable.

// RoutingOptions configures query-aware predictive routing. The zero
// value disables the layer entirely.
type RoutingOptions struct {
	// TopK enables routing when positive: confidently clustered queries
	// fan out to only the predicted top-k models (the -router-topk flag
	// on cmd/llmms). Zero disables predictive routing.
	TopK int
	// Epsilon sets the ε-probe cadence: every ⌈1/ε⌉-th routed decision
	// of a cluster includes one excluded model (zero takes the
	// predictor default 0.1; negative disables probing).
	Epsilon float64
}

// Router exposes the routing predictor (nil when routing is disabled);
// tests and embedding apps use it to inspect or pre-train the index.
func (s *Server) Router() *router.Predictor { return s.predictor }

// rateRoute forwards a user feedback rating to the cluster of the
// session's last question, so feedback sharpens the routing index as
// well as the global FeedbackStore. Feedback never creates clusters.
func (s *Server) rateRoute(sessionID, model string, rating float64) {
	if s.predictor == nil || sessionID == "" {
		return
	}
	sess, err := s.sessions.Get(sessionID)
	if err != nil {
		return
	}
	for i := len(sess.Messages) - 1; i >= 0; i-- {
		if sess.Messages[i].Role == session.RoleUser {
			s.predictor.Rate(sess.Messages[i].Content, model, rating)
			return
		}
	}
}

// handleRouter reports the routing index: options, per-outcome decision
// counts, and the transparent per-cluster model standings.
func (s *Server) handleRouter(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.predictor.Status())
}
