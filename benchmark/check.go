package main

import (
	"fmt"
	"net/http"

	"llmms/internal/server"
)

// The output checker. checkOutcome runs on every response; checkWorkload
// on a phase's aggregate. Every violation makes its operation count as
// failed and the command exit non-zero.

// checkOutcome returns what is wrong with one operation's response.
func checkOutcome(spec workloadSpec, o *outcome) []string {
	var bad []string
	add := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if o.Err != "" {
		add("%s", o.Err)
	}
	if o.Op.Kind != kindQuery {
		return bad
	}
	if o.Status != http.StatusOK {
		// Refused or failed before streaming; o.Err already says how.
		return bad
	}
	// Exactly one terminal frame per admitted query.
	if o.Terminals != 1 {
		add("%d terminal frames, want exactly 1", o.Terminals)
	}
	if o.Events["error"] > 0 || o.Result.QueryID == "" {
		return bad
	}
	settings := server.DefaultSettings()
	// The winner is an enabled model.
	enabled := false
	for _, m := range settings.EnabledModels {
		enabled = enabled || m == o.Result.Result.Model
	}
	if !enabled {
		add("winner %q is not an enabled model", o.Result.Result.Model)
	}
	// The paper's λ_max invariant: total spend never exceeds the budget.
	budget := settings.MaxTokens
	if o.Op.MaxTokens > 0 {
		budget = o.Op.MaxTokens
	}
	if o.Result.Result.TokensUsed > budget {
		add("tokens_used %d exceeds max_tokens %d", o.Result.Result.TokensUsed, budget)
	}
	if o.Result.Result.Answer == "" {
		add("empty answer")
	}
	// The session id that comes back is the one that was sent.
	if o.SentSess != "" && o.Result.SessionID != o.SentSess {
		add("session_id %q returned, %q sent", o.Result.SessionID, o.SentSess)
	}
	if o.Result.SessionID == "" || o.Result.SessionID != o.HeaderSess {
		add("result session_id %q differs from X-Session-Id %q", o.Result.SessionID, o.HeaderSess)
	}
	// A workload without the serving layer never sees a cache outcome.
	if !spec.Serving && !o.orchestrated() {
		add("X-Cache %q on a workload with the cache off", o.Cache)
	}
	return bad
}

// checkWorkload returns what is wrong with a phase as a whole, from the
// per-layer counts (layers.go) the outcomes give.
func checkWorkload(spec workloadSpec, c counts, summarised int) []string {
	var bad []string
	add := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if c.Completed == 0 {
		add("no query completed")
		return bad
	}
	switch {
	case spec.Agent:
		if c.Routed == 0 {
			add("no query was routed to a narrowed fan-out (router.routed_share is 0)")
		}
		if summarised == 0 {
			add("no session carries a summary (session.summary_share is 0)")
		}
	case spec.Serving:
		if c.Exact == 0 || c.Semantic == 0 || c.Coalesced == 0 {
			add("cache outcomes exact=%d semantic=%d coalesced=%d, want all above 0", c.Exact, c.Semantic, c.Coalesced)
		}
	default:
		if c.Exact+c.Semantic+c.Coalesced > 0 {
			add("cache outcomes on a cache-less workload")
		}
		if r := float64(c.Rounds) / float64(c.Orchestrated); r < 2 {
			add("core.rounds_per_query %.2f, want at least 2", r)
		}
	}
	return bad
}
