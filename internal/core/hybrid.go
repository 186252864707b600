package core

import (
	"context"
	"fmt"
)

// hybrid runs the combined strategy the paper's analysis proposes (§8.4,
// "Trade-Offs in Orchestration": early pruning is efficient in
// straightforward cases, adaptive allocation is robust to uncertainty —
// "a hybrid approach could potentially leverage the advantages of both
// methods").
//
// Phase 1 (OUA-style screening): every model generates one even chunk;
// the partial outputs are scored and every model trailing the best score
// by more than PruneMargin is pruned — one cheap pass eliminates the
// clearly wrong answers.
//
// Phase 2 (MAB refinement): the survivors continue under UCB1 with the
// remaining budget — the same loop MAB runs (refine, mab.go) — so
// ambiguous queries keep the bandit's adaptive allocation while easy ones
// have already concentrated the budget on one or two models.
//
// Screening chunks fan out concurrently, and per-model backend failures
// degrade gracefully in both phases: a failed model is retired with an
// EventModelFailed; the query errors only when every model has failed.
func (r *run) hybrid(ctx context.Context) (Result, error) {
	cfg := r.o.cfg
	n := len(r.cands)
	// Phase 1: one even screening chunk per model — half of an even
	// split, large enough that the partial outputs score reliably, small
	// enough that half the budget is still free for the bandit phase.
	screenChunk := max(cfg.MaxTokens/(2*n), 1)
	for _, c := range r.cands {
		r.rs.jobs = append(r.rs.jobs, fanJob{cand: c, take: screenChunk})
	}
	r.round = 1
	if err := r.fanOut(ctx, false, nil); err != nil {
		return Result{}, err
	}
	screened := r.unpruned() // only failures have pruned so far
	r.scorePass(screened)
	best := argmaxScore(screened)
	for _, c := range screened {
		c.rewardSum = c.score // seed the bandit with the screening reward
		r.announce(c)
		if c != best && best.score-c.score > cfg.PruneMargin {
			r.prune(c, fmt.Sprintf("screening: trailing best by %.3f", best.score-c.score))
		}
	}

	// Phase 2: MAB's loop over the survivors with the remaining budget,
	// the screening counted as one pull per model, and without MAB's
	// locked-leader stop — Hybrid spends the budget unless every survivor
	// finishes.
	r.round = n
	return r.refine(ctx, false, func(winner *candidate) string {
		return fmt.Sprintf("highest final reward %.3f after screening + %d pulls", winner.score, r.round-n)
	})
}
