package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"llmms/internal/llm"
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
// remaining budget, exactly as in MAB, so ambiguous queries keep the
// bandit's adaptive allocation while easy ones have already concentrated
// the budget on one or two models.
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
	qv := cfg.Encoder.Encode(prompt)
	sc := o.newScorer(qv)
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
	// A screening survivor could win the entire refinement pool on top of
	// its screening chunk, so sessions are opened for that ceiling.
	totalPulls := len(cands)
	o.attachSessions(cands, prompt)
	defer func() { o.closeAllSessions(StrategyHybrid, totalPulls, cands, "query_end") }()
	sessionHint := cfg.MaxTokens - (n-1)*screenChunk
	o.emit(Event{Type: EventRound, Strategy: StrategyHybrid, Round: 1, Elapsed: time.Since(start)})
	jobs := make([]fanJob, n)
	for i, c := range cands {
		jobs[i] = fanJob{cand: c, take: screenChunk, hint: sessionHint}
	}
	results := o.fanOut(ctx, prompt, jobs)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	for i, r := range results {
		c := jobs[i].cand
		o.emitStreamEvents(StrategyHybrid, 1, c, r)
		if r.err != nil {
			o.failCandidate(StrategyHybrid, 1, c, r.attempts, r.err)
			continue
		}
		chunk := r.chunk
		c.response = chunk.Text
		c.cont = chunk.Context
		c.tokens = chunk.EvalCount
		c.pulls = 1
		c.reason = chunk.DoneReason
		used += chunk.EvalCount
		switch chunk.DoneReason {
		case llm.DoneStop:
			c.done = true
		case llm.DoneCancel:
			return Result{}, cancelErr(ctx)
		}
		if chunk.EvalCount > 0 {
			o.emit(Event{Type: EventChunk, Strategy: StrategyHybrid, Round: 1,
				Model: c.model, Text: chunk.Text, Tokens: chunk.EvalCount,
				Elapsed: r.elapsed, Attempts: r.attempts, Prefetched: r.prefetched})
		}
	}
	o.emitRoundStall(StrategyHybrid, 1, results)
	if allFailed(cands) {
		return Result{}, allModelsFailedError(StrategyHybrid, cands)
	}
	screened := surviving(cands)
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

	// Phase 2: UCB1 over the survivors with the remaining budget.
	for used < cfg.MaxTokens {
		gamma := cfg.Gamma0 * (1 - float64(used)/float64(cfg.MaxTokens))
		arm := o.selectHybridArm(cands, gamma, totalPulls)
		if arm == nil {
			break
		}
		take := cfg.MABChunk
		if rem := cfg.MaxTokens - used; take > rem {
			take = rem
		}
		totalPulls++
		o.emit(Event{Type: EventRound, Strategy: StrategyHybrid, Round: totalPulls, Model: arm.model,
			Elapsed: time.Since(start)})
		o.beforeWait()
		r := o.pull(ctx, arm, prompt, take, cfg.MaxTokens-used)
		o.emitStreamEvents(StrategyHybrid, totalPulls, arm, r)
		if r.err != nil {
			if ctx.Err() != nil {
				return Result{}, ctx.Err()
			}
			o.failCandidate(StrategyHybrid, totalPulls, arm, r.attempts, r.err)
			if allFailed(cands) {
				return Result{}, allModelsFailedError(StrategyHybrid, cands)
			}
			continue
		}
		chunk := r.chunk
		arm.response += chunk.Text
		arm.cont = chunk.Context
		arm.tokens += chunk.EvalCount
		arm.pulls++
		arm.reason = chunk.DoneReason
		used += chunk.EvalCount
		switch chunk.DoneReason {
		case llm.DoneStop:
			arm.done = true
		case llm.DoneCancel:
			return Result{}, cancelErr(ctx)
		}
		if chunk.EvalCount > 0 {
			o.emit(Event{Type: EventChunk, Strategy: StrategyHybrid, Round: totalPulls,
				Model: arm.model, Text: chunk.Text, Tokens: chunk.EvalCount,
				Elapsed: r.elapsed, Attempts: r.attempts, Prefetched: r.prefetched})
		}
		if r.streamed {
			o.emit(Event{Type: EventRoundStall, Strategy: StrategyHybrid, Round: totalPulls,
				Elapsed: r.elapsed})
		}
		o.scorePass(sc, StrategyHybrid, totalPulls, activeCandidates(cands))
		arm.rewardSum += arm.score
		o.emit(Event{Type: EventScore, Strategy: StrategyHybrid, Round: totalPulls,
			Model: arm.model, Score: arm.score, QuerySim: arm.querySim, InterSim: arm.interSim})

		if hybridSettled(cands) {
			break
		}
	}

	survivors := activeCandidates(cands)
	if len(survivors) == 0 {
		// Every unfailed model was score-pruned or failed later; fall
		// back to the best surviving candidate so the query still gets
		// an answer — or error when none is left.
		survivors = surviving(cands)
		if len(survivors) == 0 {
			return Result{}, allModelsFailedError(StrategyHybrid, cands)
		}
	}
	o.scorePass(sc, StrategyHybrid, totalPulls, survivors)
	winner := argmaxFinalReward(survivors)
	elapsed := time.Since(start)
	o.emit(Event{Type: EventWinner, Strategy: StrategyHybrid, Model: winner.model,
		Text: winner.response, Tokens: used, Score: winner.score, Elapsed: elapsed,
		Reason: fmt.Sprintf("highest final reward %.3f after screening + %d pulls", winner.score, totalPulls-len(cands))})
	return Result{
		Strategy: StrategyHybrid, Answer: winner.response, Model: winner.model,
		TokensUsed: used, Rounds: totalPulls,
		Outcomes: outcomes(cands), Elapsed: elapsed,
	}, nil
}

// selectHybridArm is UCB1 restricted to unpruned, unfinished arms.
func (o *Orchestrator) selectHybridArm(cands []*candidate, gamma float64, totalPulls int) *candidate {
	var best *candidate
	bestIdx := math.Inf(-1)
	for _, c := range cands {
		if c.done || c.pruned {
			continue
		}
		idx := ucb1(c, gamma, totalPulls)
		if best == nil || idx > bestIdx || (idx == bestIdx && c.model < best.model) {
			best, bestIdx = c, idx
		}
	}
	return best
}

// hybridSettled reports whether every surviving arm has finished.
func hybridSettled(cands []*candidate) bool {
	for _, c := range cands {
		if !c.pruned && !c.done {
			return false
		}
	}
	return true
}
