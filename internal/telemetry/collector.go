package telemetry

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"llmms/internal/core"
)

// QueryObserver turns a query's orchestration event stream into its trace
// and the bundle's metrics as the events arrive: bind the query's spans,
// hand it every event (RecordEvent, from core.Config.OnEvent), then call
// Finish with the query's terminal error (nil on success) to record the
// aggregate metrics and offer the trace to the store. Every fact is
// written once, into the trace's arena, when it is observed: a round is a
// "round" span under the orchestration span, a generation call a "chunk"
// span under its round (orphans under the orchestration span), and what
// the orchestrator decides about them is an attribute of the span it
// concerns — "score" and "pruned" on the model's latest chunk,
// "winner"/"winner_reason", "failed"/"failed_reason" and "fallback" on the
// round they happened in, which DecisionLog reads back. core stays free of
// telemetry imports: the events already carry the timings.
//
// A single orchestrated query emits events from one goroutine, but the
// observer locks anyway so a misbehaving backend cannot corrupt it.
type QueryObserver struct {
	tel *Telemetry

	mu       sync.Mutex
	tr       QueryTrace
	finished bool
	root     *Span // bound by BindSpans, held until Finish
	parent   *Span // the orchestration span: parent of the rounds
	round    *Span // the open round, its number and its offset
	roundNo  int
	roundAt  time.Duration
	degraded [3]string    // the round's failed models, their reasons, its stream fallbacks
	chunks   []modelChunk // each model's latest chunk span, in chunkBuf up to eight models
	chunkBuf [8]modelChunk
}

type modelChunk struct {
	model string
	span  *Span
}

// StartQuery opens an observer for one query. strategy is the requested
// policy (the event stream overrides it, so a default is fine); the
// query text is cut to the bundle's maxQueryBytes and kept valid UTF-8,
// so a rune the cut splits is dropped.
func (t *Telemetry) StartQuery(id, strategy, query string) *QueryObserver {
	query = strings.ToValidUTF8(query[:min(len(query), t.maxQueryBytes)], "")
	q := &QueryObserver{tel: t, tr: QueryTrace{ID: id, Strategy: strategy, Query: query, Start: time.Now()}}
	q.chunks = q.chunkBuf[:0]
	return q
}

// BindSpans ties the query's distributed trace to this observer, which
// holds it until Finish. orch is the span wrapping the orchestrator Run
// call; round spans parent under it (or under root when nil). Without a
// root the observer keeps the header and the metrics only.
func (q *QueryObserver) BindSpans(root, orch *Span) {
	root.Hold()
	q.mu.Lock()
	q.root, q.parent = root, orch
	if orch == nil {
		q.parent = root
	}
	q.mu.Unlock()
}

// RecordEvent observes one orchestration event.
func (q *QueryObserver) RecordEvent(ev core.Event) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.finished {
		return
	}
	if ev.Strategy != "" {
		q.tr.Strategy = string(ev.Strategy)
	}
	offset := max(ev.Time.Sub(q.tr.Start), 0)
	at := q.parent
	if q.round != nil && ev.Round == q.roundNo {
		at = q.round
	}
	switch ev.Type {
	case core.EventRound:
		q.closeRound(offset)
		q.tr.Rounds++
		q.degraded = [3]string{}
		q.roundNo, q.roundAt = ev.Round, ev.Elapsed // round events carry their offset from query start
		if q.roundAt == 0 {
			q.roundAt = offset
		}
		q.round = q.parent.childAt("round", q.tr.Start.Add(q.roundAt))
		q.round.SetInt("round", ev.Round)
		if ev.Model != "" {
			q.round.SetAttr("model", ev.Model)
		}
	case core.EventChunk:
		// The span begins when the generation call did: event time minus
		// the call's elapsed.
		sp := at.childAt("chunk", q.tr.Start.Add(max(offset-ev.Elapsed, 0)))
		sp.SetInt("round", ev.Round)
		sp.SetAttr("model", ev.Model)
		sp.SetInt("tokens", ev.Tokens)
		if ev.Attempts > 1 {
			sp.SetInt("attempts", ev.Attempts)
		}
		sp.endAt(ev.Elapsed, nil)
		*q.chunkOf(ev.Model) = modelChunk{ev.Model, sp}
		q.tr.Retries += retriesOf(ev.Attempts)
		q.tel.ChunkLatency.Observe(ev.Elapsed.Seconds(), ev.Model)
		q.tel.Tokens.Add(float64(ev.Tokens), ev.Model)
		if r := retriesOf(ev.Attempts); r > 0 {
			q.tel.Retries.Add(float64(r), ev.Model)
		}
		if ev.Prefetched > 0 {
			q.tel.StreamPrefetch.Add(float64(ev.Prefetched), ev.Model)
		}
	case core.EventScore:
		q.chunkOf(ev.Model).span.write(true, "score", attrFloat|math.Float64bits(ev.Score)>>2)
	case core.EventScorePass:
		q.tel.ScoreLatency.Observe(ev.Elapsed.Seconds(), string(ev.Strategy))
	case core.EventStreamOpen:
		q.tel.StreamOpens.Inc(ev.Model)
	case core.EventStreamClose:
		q.tel.StreamCloses.Inc(ev.Model, ev.Reason)
	case core.EventStreamFallback:
		q.degraded[2] = appendList(q.degraded[2], ev.Model)
		at.SetAttr("fallback", q.degraded[2])
		q.tr.Fallback = appendList(q.tr.Fallback, ev.Model)
		q.tel.StreamFallbacks.Inc(ev.Model)
	case core.EventRoundStall:
		q.tel.RoundStall.Observe(ev.Elapsed.Seconds(), string(ev.Strategy))
	case core.EventPrune:
		q.chunkOf(ev.Model).span.write(true, "pruned", attrText, ev.Reason)
		q.tel.Prunes.Inc(string(ev.Strategy))
	case core.EventModelFailed:
		// Two models may fail in one OUA round, and neither failure may
		// overwrite the other: the attributes accumulate.
		q.degraded[0] = appendList(q.degraded[0], ev.Model)
		q.degraded[1] = appendList(q.degraded[1], ev.Reason)
		at.SetAttr("failed", q.degraded[0])
		at.SetAttr("failed_reason", q.degraded[1])
		q.tr.Failed = appendList(q.tr.Failed, ev.Model)
		q.tr.FailedReason = appendList(q.tr.FailedReason, ev.Reason)
		q.tr.Retries += retriesOf(ev.Attempts)
		q.tel.ModelFailures.Inc(ev.Model)
		if r := retriesOf(ev.Attempts); r > 0 {
			q.tel.Retries.Add(float64(r), ev.Model)
		}
	case core.EventWinner:
		q.tr.Winner = ev.Model
		q.tr.TokensUsed = ev.Tokens
		if q.round != nil {
			at = q.round // the round the decision fell in
		}
		at.SetAttr("winner", ev.Model)
		if ev.Reason != "" {
			at.SetAttr("winner_reason", ev.Reason)
		}
		// Winner events carry the orchestrator's own total wall clock —
		// more precise than measuring around Run, which would fold in
		// server-side overhead.
		if ev.Elapsed > 0 {
			q.tr.Elapsed = ev.Elapsed
		}
	}
}

func retriesOf(attempts int) int {
	if attempts > 1 {
		return attempts - 1
	}
	return 0
}

// appendList appends v to the comma-separated list l.
func appendList(l, v string) string { return strings.TrimPrefix(l+","+v, ",") }

// chunkOf returns model's entry in the latest-chunk table, adding one for
// a model not seen yet.
func (q *QueryObserver) chunkOf(model string) *modelChunk {
	for i := range q.chunks {
		if q.chunks[i].model == model {
			return &q.chunks[i]
		}
	}
	q.chunks = append(q.chunks, modelChunk{model: model})
	return &q.chunks[len(q.chunks)-1]
}

// closeRound ends the open round span at the given offset.
func (q *QueryObserver) closeRound(end time.Duration) {
	if q.round != nil {
		q.round.endAt(max(end-q.roundAt, 0), nil)
		q.round = nil
	}
}

// Finish seals the trace with the query's terminal error (nil on
// success), records the query-level metrics, offers the trace to the
// store — which keeps it by holding the arena, or lets it go back to the
// pool — and returns its header. The server has ended the orchestration
// and root spans by now. Safe to call once; later calls are no-ops
// returning the sealed header.
func (q *QueryObserver) Finish(err error) QueryTrace {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.finished {
		return q.tr
	}
	q.finished = true
	if q.tr.Elapsed == 0 {
		q.tr.Elapsed = time.Since(q.tr.Start)
	}
	q.closeRound(q.tr.Elapsed)
	q.tr.Outcome = outcomeLabel(err)
	if err != nil {
		q.tr.Error = err.Error()
	}
	q.tr.TraceID = q.root.TraceID()
	q.tr.SpanCount, _ = q.root.counts()
	q.tel.Queries.Inc(q.tr.Strategy, q.tr.Outcome)
	q.tel.QueryLatency.Observe(q.tr.Elapsed.Seconds(), q.tr.Strategy)
	q.tel.Traces.Put(q.tr, q.root)
	q.tel.TracesStored.Set(float64(q.tel.Traces.Len()))
	q.root.Release()
	return q.tr
}

// outcomeLabel maps a terminal error to the bounded outcome label set.
func outcomeLabel(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, core.ErrAllModelsFailed):
		return "all_models_failed"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "error"
	}
}

// DecisionLog renders tr.Spans as the paper's §9.5 plain-English decision
// log from the attributes RecordEvent wrote: each round and its pull, each
// chunk's tokens, the score the model held after it and the prune that
// retired it, a round's failures, the winner. Nil without an orchestration.
func (tr *QueryTrace) DecisionLog() []string {
	var groups []*SpanRecord // the orchestration span, then the rounds as they ran
	chunks := make(map[string][]*SpanRecord)
	for i := range tr.Spans {
		switch sp := &tr.Spans[i]; sp.Name {
		case "orchestrate":
			groups = append([]*SpanRecord{sp}, groups...)
		case "round":
			groups = append(groups, sp)
		case "chunk":
			chunks[sp.ParentID] = append(chunks[sp.ParentID], sp)
		}
	}
	if len(groups) == 0 || groups[0].Name != "orchestrate" {
		return nil
	}
	var log []string
	say := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	pool := "across the candidate models"
	if orch := groups[0].Attrs; tr.Strategy == string(core.StrategySingle) {
		pool = "served by " + cmp.Or(orch["winner"], orch["failed"])
	}
	say("Started a %s query %s.", tr.Strategy, pool)
	tokens, scores := make(map[string]int), make(map[string]string)
	var winner map[string]string
	for _, g := range groups {
		if a := g.Attrs; g.Name == "round" && a["model"] != "" {
			say("Round %s: pulled %s.", a["round"], a["model"])
		} else if g.Name == "round" {
			say("Round %s began.", a["round"])
		}
		for _, c := range chunks[g.SpanID] {
			n, _ := strconv.Atoi(c.Attrs["tokens"])
			tokens[c.Attrs["model"]] += n
			say("Asked %s for %d more tokens (%d so far).", c.Attrs["model"], n, tokens[c.Attrs["model"]])
		}
		if m := g.Attrs["failed"]; m != "" { // one sentence: a reason may hold a comma
			say("Lost %s: %s.", m, g.Attrs["failed_reason"])
		}
		for _, c := range chunks[g.SpanID] {
			if m, s := c.Attrs["model"], c.Attrs["score"]; s != "" {
				scores[m] = s
				say("%s scored %s.", m, percent(s))
			}
		}
		for _, c := range chunks[g.SpanID] {
			if r := c.Attrs["pruned"]; r != "" {
				say("Dropped %s at %s: %s.", c.Attrs["model"], percent(c.Attrs["score"]), r)
			}
		}
		if g.Attrs["winner"] != "" {
			winner = g.Attrs
		}
	}
	if winner != nil {
		m, at, why := winner["winner"], "", ""
		if s, ok := scores[m]; ok {
			at = " at " + percent(s)
		}
		if r := winner["winner_reason"]; r != "" {
			why = " (" + r + ")"
		}
		say("%s won%s after %d total tokens%s.", m, at, tr.TokensUsed, why)
	}
	return log
}

// percent renders a score attribute as a whole percentage.
func percent(score string) string {
	f, _ := strconv.ParseFloat(score, 64)
	return fmt.Sprintf("%.0f%%", f*100)
}
