package core

import (
	"context"
	"fmt"
	"math"
)

// mab runs the Multi-Armed Bandit algorithm (Algorithm 2). Each model is
// an arm with an unknown reward distribution. Tokens are not
// pre-allocated: every pull grants the next Config.MABChunk tokens to the
// arm with the highest UCB1 index
//
//	UCB_i = rewards_i/pulls_i + γ·sqrt(2·ln(totalPulls)/pulls_i)
//
// where the exploration coefficient decays with budget consumption:
// γ = Gamma0·(1 − usedTokens/λ_max). The pull's reward is
// α·cos(resp_i, prompt) + β·avgInterModelSim, so arms that answer
// relevantly and agree with their peers accumulate reward and attract
// further tokens, while persistently low-reward arms are naturally phased
// out. The loop terminates when the budget is spent or every arm has
// finished; the response of the arm with the highest mean reward wins.
//
// The UCB1 initialization round — every arm must be pulled once before
// any exploitation — fans its chunk calls out concurrently, collected in
// arm order; the adaptive pulls that follow are inherently sequential
// (each pull's arm choice depends on the previous pull's reward). An arm
// whose backend keeps failing past its retry budget is retired with an
// EventModelFailed instead of aborting the query; the query errors only
// when every arm has failed (ErrAllModelsFailed).
func (r *run) mab(ctx context.Context) (Result, error) {
	cfg := r.o.cfg
	// Concurrent initialization: grant each arm its first chunk up
	// front. Per-arm takes are fixed before launching so the shared
	// budget split is deterministic; arms the budget cannot cover stay
	// unpulled (the loop's budget check stops before they would matter).
	remaining := cfg.MaxTokens
	for _, c := range r.cands {
		take := min(cfg.MABChunk, remaining)
		if take <= 0 {
			break
		}
		remaining -= take
		r.rs.jobs = append(r.rs.jobs, fanJob{cand: c, take: take})
	}
	if err := r.fanOut(ctx, true, nil); err != nil {
		return Result{}, err
	}
	// Seed every initialized arm's reward with its first-chunk score.
	r.scorePass(r.unpruned())
	for _, arm := range r.cands {
		if !arm.failed && arm.pulls > 0 {
			arm.rewardSum += arm.score
			r.announce(arm)
		}
	}

	// A finished arm whose mean reward already dominates every possible
	// rival bound cannot be overtaken — further pulls would only spend
	// budget on losers — so MAB lets a locked leader end the loop.
	return r.refine(ctx, true, func(best *candidate) string {
		return fmt.Sprintf("highest final reward %.3f over %d pulls", best.score, best.pulls)
	})
}

// refine is the UCB1 loop (Algorithm 2 lines 3–16) over arms that already
// hold their first chunk and its reward: MAB runs it after its
// initialization round, Hybrid after its screening round. Each pull grants
// the next Config.MABChunk tokens to the unpruned, unfinished arm with the
// highest index, rewards it with its new score, and the loop ends when the
// budget is spent, every arm has settled, or — with lockLeader — a finished
// leader can no longer be overtaken. The arm with the highest final score
// wins; reason words the winner event. Nothing is score-pruned in MAB, so
// "unpruned" there means "not failed".
func (r *run) refine(ctx context.Context, lockLeader bool, reason func(best *candidate) string) (Result, error) {
	cfg := r.o.cfg
	for r.used < cfg.MaxTokens {
		gamma := cfg.Gamma0 * (1 - float64(r.used)/float64(cfg.MaxTokens))
		arm := selectArm(r.cands, gamma, r.round)
		if arm == nil {
			break // every arm has finished its answer or been pruned
		}
		r.round++
		r.roundEvent(arm.model)
		res, err := r.pull(ctx, arm, min(cfg.MABChunk, cfg.MaxTokens-r.used))
		if err != nil {
			return Result{}, err
		}
		if arm.failed {
			if allFailed(r.cands) {
				return Result{}, allModelsFailedError(r.strategy, r.cands)
			}
			continue
		}
		r.o.emit(Event{Type: EventRoundStall, Strategy: r.strategy, Round: r.round, Elapsed: res.elapsed})

		// Reward the pull (line 9): relevance plus consensus, computed on
		// the arm's whole accumulated response so far.
		r.scorePass(r.unpruned())
		arm.rewardSum += arm.score
		r.announce(arm)

		// Termination condition (line 12): the budget loop header handles
		// exhaustion; stop early when every arm has completed its answer.
		if allDone(r.cands) || lockLeader && leaderLocked(r.cands, gamma, r.round) {
			break
		}
	}
	// The winner (line 16) is the arm whose response has the highest
	// reward at termination — the current α·sim(query, response) +
	// β·avgInterModelSim of each accumulated response. Selecting on the
	// final state rather than the pull history avoids two pathologies: a
	// historical mean underrates arms that improved as their answer
	// completed, and a cumulative sum overrates verbose arms that simply
	// needed more pulls.
	return r.settle(true, reason)
}

// selectArm returns the unfinished, unpruned arm with the highest UCB1
// index. An arm that has never been pulled has an infinite index, so
// every arm is tried once before any exploitation (standard UCB1
// initialization). Returns nil when every arm has finished or been pruned.
func selectArm(cands []*candidate, gamma float64, totalPulls int) *candidate {
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

// ucb1 computes the arm's index (Algorithm 2 line 4). Arms without any
// history — real or prior — get +Inf so they are explored first. A
// warm-start prior (Config.Priors) enters as priorPulls pseudo-pulls at
// the prior mean: the arm's effective mean starts at its historical
// value and washes out under real observations, and the shrunken
// exploration bonus reflects that the arm is not actually unknown.
func ucb1(c *candidate, gamma float64, totalPulls int) float64 {
	eff := float64(c.pulls) + c.priorPulls
	if eff == 0 {
		return math.Inf(1)
	}
	mean := (c.rewardSum + c.priorSum) / eff
	if totalPulls < 1 {
		totalPulls = 1
	}
	return mean + gamma*math.Sqrt(2*math.Log(float64(totalPulls))/eff)
}

func meanReward(c *candidate) float64 {
	eff := float64(c.pulls) + c.priorPulls
	if eff == 0 {
		return 0
	}
	return (c.rewardSum + c.priorSum) / eff
}

// allDone reports whether every arm has settled — finished its answer or
// been pruned (a failed arm is pruned).
func allDone(cands []*candidate) bool {
	for _, c := range cands {
		if !c.done && !c.pruned {
			return false
		}
	}
	return true
}

// leaderLocked reports whether a finished arm's mean reward exceeds every
// unfinished arm's optimistic UCB bound — at that point continued
// exploration cannot change the winner, so stopping saves tokens.
func leaderLocked(cands []*candidate, gamma float64, totalPulls int) bool {
	var leader *candidate
	for _, c := range cands {
		if c.done && c.pulls > 0 && (leader == nil || meanReward(c) > meanReward(leader)) {
			leader = c
		}
	}
	if leader == nil {
		return false
	}
	lead := meanReward(leader)
	for _, c := range cands {
		if c.failed {
			continue
		}
		if c.done {
			if meanReward(c) > lead {
				return false
			}
			continue
		}
		if ucb1(c, gamma, totalPulls) >= lead {
			return false
		}
	}
	return true
}
