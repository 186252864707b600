package core

import (
	"context"
	"fmt"
	"slices"
	"time"
)

// OUA runs the Overperformers–Underperformers Algorithm (Algorithm 1).
//
// The budget λ_max is split evenly: each of the N models may generate at
// most λ_max/N tokens, spread over Config.Rounds round-robin chunks. After
// every round each active model's accumulated partial response is scored
// α·cos(resp, prompt) + β·avgInterModelSim, then:
//
//   - if the best model leads the second-best score by more than
//     LeadMargin and has finished naturally ("stop"), its answer is
//     returned immediately (line 17);
//   - if the worst model trails the second-worst score by more than
//     PruneMargin, it is pruned and its unspent allowance is
//     redistributed over the surviving models (line 21) — "allocate them
//     to rest beyond each model's maximum allowance".
//
// The loop ends when every surviving model has finished or spent its
// allowance; the highest-scoring response wins (line 25).
//
// Each round's chunk calls fan out concurrently (fanOut: a goroutine per
// pull that may wait, collected deterministically in model order), so a
// round costs the slowest model's latency rather than the sum. A model whose
// backend keeps failing past its retry budget is pruned with an
// EventModelFailed and its allowance redistributed; the query errors
// only when every model has failed (ErrAllModelsFailed).
func (o *Orchestrator) OUA(ctx context.Context, prompt string) (Result, error) {
	start := time.Now()
	cfg := o.cfg
	n := len(cfg.Models)
	perModel := cfg.MaxTokens / n
	if perModel < 1 {
		perModel = 1
	}
	chunkSize := perModel / cfg.Rounds
	if chunkSize < 1 {
		chunkSize = 1
	}

	cands := make([]*candidate, n)
	for i, m := range cfg.Models {
		cands[i] = &candidate{model: m, remaining: perModel}
	}
	sc := o.newScorer(prompt)
	defer sc.release()
	o.emit(Event{Type: EventStart, Strategy: StrategyOUA})

	totalTokens := 0
	round := 0
	// Each candidate holds one generation session; the sweep closes
	// whatever stream is still open when the query ends, however it ends.
	o.attachSessions(cands, prompt)
	defer func() { o.closeAllSessions(StrategyOUA, round, cands, "query_end") }()
	var rs roundScratch
	for {
		round++
		o.emit(Event{Type: EventRound, Strategy: StrategyOUA, Round: round, Elapsed: time.Since(start)})

		// Generation pass: every active model with budget left and an
		// unfinished answer receives its next chunk. The pulls that may
		// wait run concurrently and the results are collected in
		// model-index order, so the round costs the slowest model's latency
		// while scoring, pruning, and event order stay identical to the
		// sequential pass.
		rs.jobs = slices.Grow(rs.jobs[:0], n)
		for _, c := range cands {
			if c.pruned || c.done || c.remaining <= 0 {
				continue
			}
			take := chunkSize
			if take > c.remaining {
				take = c.remaining
			}
			rs.jobs = append(rs.jobs, fanJob{cand: c, take: take, spent: totalTokens})
		}
		results := fanOutRound(o, ctx, &rs)
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		progressed := false
		for i, r := range results {
			c := rs.jobs[i].cand
			n, err := o.absorb(ctx, StrategyOUA, round, c, r)
			if err != nil {
				return Result{}, err
			}
			if c.failed {
				redistribute(c, cands)
				continue
			}
			c.remaining -= n
			totalTokens += n
			progressed = progressed || n > 0
		}
		o.emitRoundStall(StrategyOUA, round, results)
		if allFailed(cands) {
			return Result{}, allModelsFailedError(StrategyOUA, cands)
		}

		// Scoring pass over all unpruned candidates (finished models keep
		// competing on their final answers; line 10 iterates activeModels).
		active := rs.unpruned(cands)
		if len(active) == 0 {
			break
		}
		o.scorePass(sc, StrategyOUA, round, active)
		for _, c := range active {
			o.emit(Event{Type: EventScore, Strategy: StrategyOUA, Round: round,
				Model: c.model, Score: c.score, QuerySim: c.querySim, InterSim: c.interSim})
		}

		// Early exit (line 17): a clear, finished leader wins outright.
		if len(active) >= 2 {
			best, second := topTwo(active)
			if best.done && best.score > second.score+cfg.LeadMargin {
				// The losers' streams are still generating; cancel them now
				// rather than at the deferred query_end sweep so the early
				// return actually releases backend capacity early.
				o.closeAllSessions(StrategyOUA, round, cands, "early_exit")
				return o.finishOUA(cands, best, totalTokens, round, true, start,
					fmt.Sprintf("early exit: leads by %.3f", best.score-second.score)), nil
			}
		}

		// Pruning (line 21): drop a clearly trailing model and hand its
		// unspent allowance to the survivors.
		if len(active) >= 2 {
			worst, secondWorst := bottomTwo(active)
			if secondWorst.score-worst.score > cfg.PruneMargin {
				worst.pruned = true
				o.closeSession(StrategyOUA, round, worst, "pruned")
				o.emit(Event{Type: EventPrune, Strategy: StrategyOUA, Round: round,
					Model: worst.model, Score: worst.score,
					Reason: fmt.Sprintf("trailing by %.3f", secondWorst.score-worst.score)})
				redistribute(worst, cands)
			}
		}

		// Termination: all survivors finished or out of budget, or this
		// round produced nothing (everyone done/spent).
		if !progressed || allSettled(cands) {
			break
		}
	}

	active := rs.unpruned(cands)
	if len(active) == 0 {
		// Everything was pruned — fall back to the best surviving
		// (non-failed) candidate so the query still gets an answer.
		active = surviving(cands)
		if len(active) == 0 {
			return Result{}, allModelsFailedError(StrategyOUA, cands)
		}
		o.scorePass(sc, StrategyOUA, round, active)
	}
	best := argmaxScore(active)
	return o.finishOUA(cands, best, totalTokens, round, false, start, "budget settled"), nil
}

func (o *Orchestrator) finishOUA(cands []*candidate, best *candidate, tokens, rounds int, early bool, start time.Time, reason string) Result {
	elapsed := time.Since(start)
	o.emit(Event{Type: EventWinner, Strategy: StrategyOUA, Model: best.model,
		Text: best.response, Tokens: tokens, Score: best.score, Reason: reason, Elapsed: elapsed})
	return Result{
		Strategy: StrategyOUA, Answer: best.response, Model: best.model,
		TokensUsed: tokens, Rounds: rounds, EarlyExit: early,
		Outcomes: outcomes(cands), Elapsed: elapsed,
	}
}

// allSettled reports whether every unpruned candidate has either finished
// naturally or exhausted its allowance.
func allSettled(cands []*candidate) bool {
	for _, c := range cands {
		if c.pruned {
			continue
		}
		if !c.done && c.remaining > 0 {
			return false
		}
	}
	return true
}

// redistribute splits the pruned model's unspent allowance evenly across
// the surviving candidates; the remainder goes to the first survivors.
func redistribute(pruned *candidate, cands []*candidate) {
	freed := pruned.remaining
	pruned.remaining = 0
	var survivors []*candidate
	for _, c := range cands {
		if !c.pruned && !c.done {
			survivors = append(survivors, c)
		}
	}
	if freed <= 0 || len(survivors) == 0 {
		return
	}
	share := freed / len(survivors)
	extra := freed % len(survivors)
	for i, c := range survivors {
		c.remaining += share
		if i < extra {
			c.remaining++
		}
	}
}

// topTwo returns the best- and second-best-scoring candidates; callers
// guarantee len(cands) >= 2. Ties break on model name for determinism.
func topTwo(cands []*candidate) (best, second *candidate) {
	for _, c := range cands {
		switch {
		case best == nil || better(c, best):
			best, second = c, best
		case second == nil || better(c, second):
			second = c
		}
	}
	return best, second
}

// bottomTwo returns the worst- and second-worst-scoring candidates.
func bottomTwo(cands []*candidate) (worst, secondWorst *candidate) {
	for _, c := range cands {
		switch {
		case worst == nil || better(worst, c):
			worst, secondWorst = c, worst
		case secondWorst == nil || better(secondWorst, c):
			secondWorst = c
		}
	}
	return worst, secondWorst
}

func better(a, b *candidate) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.model < b.model
}

func argmaxScore(cands []*candidate) *candidate {
	best := cands[0]
	for _, c := range cands[1:] {
		if better(c, best) {
			best = c
		}
	}
	return best
}
