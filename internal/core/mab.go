package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"llmms/internal/llm"
)

// MAB runs the Multi-Armed Bandit algorithm (Algorithm 2). Each model is
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
// whose backend keeps failing past Config.Retry is retired with an
// EventModelFailed instead of aborting the query; the query errors only
// when every arm has failed (ErrAllModelsFailed).
func (o *Orchestrator) MAB(ctx context.Context, prompt string) (Result, error) {
	start := time.Now()
	cfg := o.cfg
	cands := make([]*candidate, len(cfg.Models))
	for i, m := range cfg.Models {
		cands[i] = o.newCandidate(m)
	}
	qv := cfg.Encoder.Encode(prompt)
	sc := o.newScorer(qv)
	defer sc.release()
	o.emit(Event{Type: EventStart, Strategy: StrategyMAB})

	// Concurrent initialization: grant each arm its first chunk up
	// front. Per-arm takes are fixed before launching so the shared
	// budget split is deterministic; arms the budget cannot cover stay
	// unpulled (the loop's budget check stops before they would matter).
	used := 0
	totalPulls := 0
	// The budget is shared, so any single arm could in principle win all
	// of it — each session's stream is opened for the full λ_max and the
	// unclaimed tail is cancelled at close.
	o.attachSessions(cands, prompt)
	defer func() { o.closeAllSessions(StrategyMAB, totalPulls, cands, "query_end") }()
	var jobs []fanJob
	remaining := cfg.MaxTokens
	for _, c := range cands {
		take := cfg.MABChunk
		if take > remaining {
			take = remaining
		}
		if take <= 0 {
			break
		}
		remaining -= take
		jobs = append(jobs, fanJob{cand: c, take: take, hint: cfg.MaxTokens})
	}
	results := o.fanOut(ctx, prompt, jobs)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	for i, r := range results {
		arm := jobs[i].cand
		totalPulls++
		o.emit(Event{Type: EventRound, Strategy: StrategyMAB, Round: totalPulls, Model: arm.model,
			Elapsed: time.Since(start)})
		o.emitStreamEvents(StrategyMAB, totalPulls, arm, r)
		if r.err != nil {
			o.failCandidate(StrategyMAB, totalPulls, arm, r.attempts, r.err)
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
			o.emit(Event{Type: EventChunk, Strategy: StrategyMAB, Round: totalPulls,
				Model: arm.model, Text: chunk.Text, Tokens: chunk.EvalCount,
				Elapsed: r.elapsed, Attempts: r.attempts, Prefetched: r.prefetched})
		}
	}
	o.emitRoundStall(StrategyMAB, totalPulls, results)
	if allFailed(cands) {
		return Result{}, allModelsFailedError(StrategyMAB, cands)
	}
	// Seed every initialized arm's reward with its first-chunk score.
	o.scorePass(sc, StrategyMAB, totalPulls, surviving(cands))
	for _, arm := range cands {
		if arm.failed || arm.pulls == 0 {
			continue
		}
		arm.rewardSum += arm.score
		o.emit(Event{Type: EventScore, Strategy: StrategyMAB, Round: totalPulls,
			Model: arm.model, Score: arm.score, QuerySim: arm.querySim, InterSim: arm.interSim})
	}

	for used < cfg.MaxTokens {
		gamma := cfg.Gamma0 * (1 - float64(used)/float64(cfg.MaxTokens))
		arm := o.selectArm(cands, gamma, totalPulls)
		if arm == nil {
			break // every arm has finished its answer or failed
		}
		take := cfg.MABChunk
		if rem := cfg.MaxTokens - used; take > rem {
			take = rem
		}
		totalPulls++
		o.emit(Event{Type: EventRound, Strategy: StrategyMAB, Round: totalPulls, Model: arm.model,
			Elapsed: time.Since(start)})

		o.beforeWait()
		r := o.pull(ctx, arm, prompt, take, cfg.MaxTokens-used)
		o.emitStreamEvents(StrategyMAB, totalPulls, arm, r)
		if r.err != nil {
			if ctx.Err() != nil {
				return Result{}, ctx.Err()
			}
			o.failCandidate(StrategyMAB, totalPulls, arm, r.attempts, r.err)
			if allFailed(cands) {
				return Result{}, allModelsFailedError(StrategyMAB, cands)
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
			o.emit(Event{Type: EventChunk, Strategy: StrategyMAB, Round: totalPulls,
				Model: arm.model, Text: chunk.Text, Tokens: chunk.EvalCount,
				Elapsed: r.elapsed, Attempts: r.attempts, Prefetched: r.prefetched})
		}
		if r.streamed {
			o.emit(Event{Type: EventRoundStall, Strategy: StrategyMAB, Round: totalPulls,
				Elapsed: r.elapsed})
		}

		// Reward the pull (line 9): relevance plus consensus, computed on
		// the arm's whole accumulated response so far.
		o.scorePass(sc, StrategyMAB, totalPulls, surviving(cands))
		arm.rewardSum += arm.score
		o.emit(Event{Type: EventScore, Strategy: StrategyMAB, Round: totalPulls,
			Model: arm.model, Score: arm.score, QuerySim: arm.querySim, InterSim: arm.interSim})

		// Termination condition (line 12): the budget loop header handles
		// exhaustion; stop early when every arm has completed its answer.
		if allDone(cands) {
			break
		}
		// A finished arm whose mean reward already dominates every
		// possible rival bound cannot be overtaken — further pulls would
		// only spend budget on losers.
		if leaderLocked(cands, gamma, totalPulls) {
			break
		}
	}

	final := surviving(cands)
	if len(final) == 0 {
		return Result{}, allModelsFailedError(StrategyMAB, cands)
	}
	o.scorePass(sc, StrategyMAB, totalPulls, final)
	best := argmaxFinalReward(final)
	elapsed := time.Since(start)
	o.emit(Event{Type: EventWinner, Strategy: StrategyMAB, Model: best.model,
		Text: best.response, Tokens: used, Score: best.score, Elapsed: elapsed,
		Reason: fmt.Sprintf("highest final reward %.3f over %d pulls", best.score, best.pulls)})
	return Result{
		Strategy: StrategyMAB, Answer: best.response, Model: best.model,
		TokensUsed: used, Rounds: totalPulls,
		Outcomes: outcomes(cands), Elapsed: elapsed,
	}, nil
}

// selectArm returns the unfinished, unfailed arm with the highest UCB1
// index. An arm that has never been pulled has an infinite index, so
// every arm is tried once before any exploitation (standard UCB1
// initialization). Returns nil when every arm has finished or failed.
func (o *Orchestrator) selectArm(cands []*candidate, gamma float64, totalPulls int) *candidate {
	var best *candidate
	bestIdx := math.Inf(-1)
	for _, c := range cands {
		if c.done || c.failed {
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
// been retired by failure.
func allDone(cands []*candidate) bool {
	for _, c := range cands {
		if !c.done && !c.failed {
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

// argmaxFinalReward selects the final winner (Algorithm 2 line 16): the
// arm whose response has the highest reward at termination, i.e. the
// current value of r = α·sim(query, response) + β·avgInterModelSim for
// each arm's accumulated response. Selecting on the final state rather
// than the pull history avoids two pathologies: a historical mean
// underrates arms that improved as their answer completed, and a
// cumulative sum overrates verbose arms that simply needed more pulls.
// Ties break on name for determinism.
func argmaxFinalReward(cands []*candidate) *candidate {
	best := cands[0]
	for _, c := range cands[1:] {
		if better(c, best) {
			best = c
		}
	}
	return best
}
