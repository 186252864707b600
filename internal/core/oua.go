package core

import (
	"context"
	"fmt"
)

// oua runs the Overperformers–Underperformers Algorithm (Algorithm 1).
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
// Each round's chunk calls fan out concurrently (run.fanOut), so a round
// costs the slowest model's latency rather than the sum. A model whose
// backend keeps failing past its retry budget is pruned with an
// EventModelFailed and its allowance redistributed; the query errors
// only when every model has failed (ErrAllModelsFailed).
func (r *run) oua(ctx context.Context) (Result, error) {
	cfg := r.o.cfg
	perModel := max(cfg.MaxTokens/len(r.cands), 1)
	chunkSize := max(perModel/cfg.Rounds, 1)
	for _, c := range r.cands {
		c.remaining = perModel
	}
	for {
		r.round++
		// Generation pass: every active model with budget left and an
		// unfinished answer receives its next chunk; a failed model's
		// allowance goes to the survivors.
		for _, c := range r.cands {
			if !c.pruned && !c.done && c.remaining > 0 {
				r.rs.jobs = append(r.rs.jobs, fanJob{cand: c, take: min(chunkSize, c.remaining), spent: r.used})
			}
		}
		used := r.used
		if err := r.fanOut(ctx, false, func(c *candidate, tokens int) {
			c.remaining -= tokens
			if c.failed {
				redistribute(c, r.cands)
			}
		}); err != nil {
			return Result{}, err
		}
		progressed := r.used > used

		// Scoring pass over all unpruned candidates (finished models keep
		// competing on their final answers; line 10 iterates activeModels).
		active := r.unpruned()
		if len(active) == 0 {
			break
		}
		r.scorePass(active)
		for _, c := range active {
			r.announce(c)
		}

		if len(active) >= 2 {
			// Early exit (line 17): a clear, finished leader wins outright.
			best, second := topTwo(active)
			if best.done && best.score > second.score+cfg.LeadMargin {
				// The losers' streams are still generating; cancel them now
				// rather than at the query_end sweep so the early return
				// actually releases backend capacity early.
				r.closeAll("early_exit")
				return r.finish(best, true, fmt.Sprintf("early exit: leads by %.3f", best.score-second.score)), nil
			}
			// Pruning (line 21): drop a clearly trailing model and hand its
			// unspent allowance to the survivors.
			worst, secondWorst := bottomTwo(active)
			if secondWorst.score-worst.score > cfg.PruneMargin {
				r.prune(worst, fmt.Sprintf("trailing by %.3f", secondWorst.score-worst.score))
				redistribute(worst, r.cands)
			}
		}

		// Termination: all survivors finished or out of budget, or this
		// round produced nothing (everyone done/spent).
		if !progressed || allSettled(r.cands) {
			break
		}
	}
	return r.settle(false, func(*candidate) string { return "budget settled" })
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
