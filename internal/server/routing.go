package server

import (
	"net/http"

	"llmms/internal/router"
)

// Predictive routing (DESIGN.md "Predictive routing"): with
// Options.Routing.TopK set, the server keeps a router.Predictor — an
// online query-embedding cluster index with per-(cluster, model) reward
// history — and consults it on every multi-model query before admission.
// A confident prediction narrows the fan-out to the top-k models (plus
// the occasional ε-probe), and the narrowed width is what the Gate
// acquires, so admission capacity gains are actually realized. The index
// is the server's one learned model quality: every completed orchestration
// and every user rating (POST /api/feedback) trains it, and GET /api/router
// is its leaderboard. With Options.DataDir the cluster collection is
// durable, written behind the changes.

// RoutingOptions configures query-aware predictive routing. The zero
// value disables the layer entirely.
type RoutingOptions struct {
	// TopK enables routing when positive: confidently clustered queries
	// fan out to only the predicted top-k models (the -router-topk flag
	// on cmd/llmms). Zero disables predictive routing.
	TopK int
}

// Router exposes the routing predictor (nil when routing is disabled);
// tests and embedding apps use it to inspect or pre-train the index.
func (s *Server) Router() *router.Predictor { return s.predictor }

// handleRouter reports the routing index: options, per-outcome decision
// counts, and the transparent per-cluster model standings.
func (s *Server) handleRouter(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.predictor.Status())
}
