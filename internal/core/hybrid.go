package core

import (
	"context"
	"fmt"
	"time"
)

// Hybrid runs the combined strategy the paper's analysis proposes (§8.4,
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
func (o *Orchestrator) Hybrid(ctx context.Context, prompt string) (Result, error) {
	start := time.Now()
	cfg := o.cfg
	n := len(cfg.Models)
	cands := make([]*candidate, n)
	for i, m := range cfg.Models {
		cands[i] = o.newCandidate(m)
	}
	sc := o.newScorer(prompt)
	defer sc.release()
	o.emit(Event{Type: EventStart, Strategy: StrategyHybrid})

	// Phase 1: one even screening chunk per model — half of an even
	// split, large enough that the partial outputs score reliably, small
	// enough that half the budget is still free for the bandit phase.
	// The screening chunks fan out concurrently (collected in model
	// order); a model that fails its retry budget is retired with an
	// EventModelFailed instead of killing the query.
	screenChunk := cfg.MaxTokens / (2 * n)
	if screenChunk < 1 {
		screenChunk = 1
	}
	used := 0
	totalPulls := len(cands)
	o.attachSessions(cands, prompt)
	defer func() { o.closeAllSessions(StrategyHybrid, totalPulls, cands, "query_end") }()
	o.emit(Event{Type: EventRound, Strategy: StrategyHybrid, Round: 1, Elapsed: time.Since(start)})
	rs := roundScratch{jobs: make([]fanJob, n)}
	for i, c := range cands {
		rs.jobs[i] = fanJob{cand: c, take: screenChunk}
	}
	results := fanOutRound(o, ctx, &rs)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	for i, r := range results {
		tokens, err := o.absorb(ctx, StrategyHybrid, 1, rs.jobs[i].cand, r)
		if err != nil {
			return Result{}, err
		}
		used += tokens
	}
	o.emitRoundStall(StrategyHybrid, 1, results)
	if allFailed(cands) {
		return Result{}, allModelsFailedError(StrategyHybrid, cands)
	}
	screened := rs.unpruned(cands) // only failures have pruned so far
	o.scorePass(sc, StrategyHybrid, 1, screened)
	best := argmaxScore(screened)
	for _, c := range screened {
		c.rewardSum = c.score // seed the bandit with the screening reward
		o.emit(Event{Type: EventScore, Strategy: StrategyHybrid, Round: 1,
			Model: c.model, Score: c.score, QuerySim: c.querySim, InterSim: c.interSim})
		if c != best && best.score-c.score > cfg.PruneMargin {
			c.pruned = true
			o.closeSession(StrategyHybrid, 1, c, "pruned")
			o.emit(Event{Type: EventPrune, Strategy: StrategyHybrid, Round: 1,
				Model: c.model, Score: c.score,
				Reason: fmt.Sprintf("screening: trailing best by %.3f", best.score-c.score)})
		}
	}

	// Phase 2: MAB's loop over the survivors with the remaining budget,
	// without MAB's locked-leader stop — Hybrid spends the budget unless
	// every survivor finishes.
	return o.refine(ctx, StrategyHybrid, cands, sc, &rs, start, used, &totalPulls, false, func(winner *candidate) string {
		return fmt.Sprintf("highest final reward %.3f after screening + %d pulls", winner.score, totalPulls-n)
	})
}
