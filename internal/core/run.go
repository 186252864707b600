package core

import (
	"context"
	"time"
)

// run is one query under one strategy: what every strategy keeps for the
// query's length, and the steps they share — opening the query, a fan-out
// round, a sequential pull, a scoring pass, the winner and its Result, and
// the end-of-query sweep. A strategy is a method on run that holds only its
// algorithm's decisions: how much each model is granted, who is pruned,
// when to stop. Orchestrator.Run opens a run, hands it to the strategy and
// closes it however the strategy returns.
type run struct {
	o        *Orchestrator
	strategy Strategy
	start    time.Time

	cands []*candidate
	sc    *scorer
	rs    roundScratch
	// round is the round the query is in: an OUA round, for a bandit its
	// pull count. Every step's events carry it, and so does the sweep.
	round int
	// used is the tokens awarded so far.
	used int
}

// open starts a query over models: their candidates and generation
// sessions, the query's scorer, and the start event, which names the model
// of the single baseline.
func (o *Orchestrator) open(strategy Strategy, prompt string, models []string) *run {
	r := &run{o: o, strategy: strategy, start: time.Now(),
		cands: make([]*candidate, len(models)), sc: o.newScorer(prompt)}
	r.rs.jobs = make([]fanJob, 0, len(models))
	for i, m := range models {
		r.cands[i] = o.newCandidate(m)
	}
	o.attachSessions(r.cands, prompt)
	start := Event{Type: EventStart, Strategy: strategy}
	if strategy == StrategySingle {
		start.Model = models[0]
	}
	o.emit(start)
	return r
}

// close ends the query however the strategy returned: it sweeps the
// streams still open, reporting the round the query ended in, and gives
// the scorer back. Nothing is scored afterwards.
func (r *run) close() {
	r.closeAll("query_end")
	r.sc.release()
}

// closeAll closes every candidate's open stream for reason.
func (r *run) closeAll(reason string) {
	for _, c := range r.cands {
		r.o.closeSession(r.strategy, r.round, c, reason)
	}
}

// roundEvent opens r.round; model names a bandit's arm.
func (r *run) roundEvent(model string) {
	r.o.emit(Event{Type: EventRound, Strategy: r.strategy, Round: r.round, Model: model,
		Elapsed: time.Since(r.start)})
}

// fanOut runs one fan-out round over the jobs the strategy queued in
// r.rs.jobs: the pulls (fanOut, fanout.go), then every result absorbed in
// job order, its tokens awarded and handed to each when that is non-nil;
// then the round's stall event, and the all-failed error. The round is
// r.round, opened by one round event — unless pulls is set: a bandit's
// first pulls, each of which is a round of its own, numbered on from
// r.round and opened by an event naming its arm.
func (r *run) fanOut(ctx context.Context, pulls bool, each func(c *candidate, tokens int)) error {
	o := r.o
	if !pulls {
		r.roundEvent("")
	}
	results := fanOutRound(o, ctx, &r.rs)
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, res := range results {
		c := r.rs.jobs[i].cand
		if pulls {
			r.round++
			r.roundEvent(c.model)
		}
		n, err := o.absorb(ctx, r.strategy, r.round, c, res)
		if err != nil {
			return err
		}
		r.used += n
		if each != nil {
			each(c, n)
		}
	}
	r.rs.jobs = r.rs.jobs[:0]
	o.emitRoundStall(r.strategy, r.round, results)
	if allFailed(r.cands) {
		return allModelsFailedError(r.strategy, r.cands)
	}
	return nil
}

// pull is one sequential pull: c's next take tokens, absorbed in r.round
// and awarded. The wait is announced first (Config.BeforeWait).
func (r *run) pull(ctx context.Context, c *candidate, take int) (fanResult, error) {
	r.o.beforeWait()
	res := r.o.pull(ctx, c, take, r.used)
	n, err := r.o.absorb(ctx, r.strategy, r.round, c, res)
	r.used += n
	return res, err
}

// unpruned lists the candidates not pruned, in the round scratch.
func (r *run) unpruned() []*candidate { return r.rs.unpruned(r.cands) }

// scorePass runs one timed scoring pass over cands and announces it
// (EventScorePass carries the pass's compute time, feeding the
// llmms_score_duration_seconds histogram).
func (r *run) scorePass(cands []*candidate) {
	start := time.Now()
	r.sc.pass(cands)
	r.o.emit(Event{Type: EventScorePass, Strategy: r.strategy, Round: r.round, Elapsed: time.Since(start)})
}

// announce emits c's current score.
func (r *run) announce(c *candidate) {
	r.o.emit(Event{Type: EventScore, Strategy: r.strategy, Round: r.round,
		Model: c.model, Score: c.score, QuerySim: c.querySim, InterSim: c.interSim})
}

// prune removes c from the query: its stream is closed and the prune
// announced with reason.
func (r *run) prune(c *candidate, reason string) {
	c.pruned = true
	r.o.closeSession(r.strategy, r.round, c, "pruned")
	r.o.emit(Event{Type: EventPrune, Strategy: r.strategy, Round: r.round,
		Model: c.model, Score: c.score, Reason: reason})
}

// settle picks the winner from the unpruned candidates or, when every one
// was pruned, from the surviving ones, scored afresh — and errs when none
// is left. rescore scores the unpruned ones afresh too. reason words the
// winner event.
func (r *run) settle(rescore bool, reason func(best *candidate) string) (Result, error) {
	final := r.unpruned()
	if len(final) == 0 {
		if final = surviving(r.cands); len(final) == 0 {
			return Result{}, allModelsFailedError(r.strategy, r.cands)
		}
		rescore = true
	}
	if rescore {
		r.scorePass(final)
	}
	best := argmaxScore(final)
	return r.finish(best, false, reason(best)), nil
}

// finish announces best as the winner and builds the Result. The winner
// event carries the selection's score and reason; the single baseline
// selects nothing and passes no reason.
func (r *run) finish(best *candidate, early bool, reason string) Result {
	elapsed := time.Since(r.start)
	ev := Event{Type: EventWinner, Strategy: r.strategy, Model: best.model,
		Text: best.response, Tokens: r.used, Elapsed: elapsed}
	if reason != "" {
		ev.Score, ev.Reason = best.score, reason
	}
	r.o.emit(ev)
	return Result{
		Strategy: r.strategy, Answer: best.response, Model: best.model,
		TokensUsed: r.used, Rounds: r.round, EarlyExit: early,
		Outcomes: outcomes(r.cands), Elapsed: elapsed,
	}
}
