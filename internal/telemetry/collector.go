package telemetry

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"time"

	"llmms/internal/core"
)

// QueryObserver turns a query's orchestration event stream into its trace
// and the bundle's metrics as the events arrive. It implements
// core.Recorder: attach it as Config.Recorder, bind the query's spans,
// run the query, then call Finish with the query's terminal error (nil on
// success) to record the aggregate metrics and offer the trace to the
// store. Every fact is written once, into the trace's arena, when it is
// observed: a round is a "round" span under the orchestration span, a
// generation call a "chunk" span under its round (orphans under the
// orchestration span), and what the orchestrator decides about them is an
// attribute of the span it concerns — "score" and "pruned" on the model's
// latest chunk, "winner"/"winner_reason" and "failed"/"failed_reason" on
// the round they happened in. core stays free of telemetry imports: the
// events already carry the timings.
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
	failed   [2]string     // the round's failures so far: models, reasons
	chunks   [8]modelChunk // each model's latest chunk span
}

type modelChunk struct {
	model string
	span  *Span
}

// StartQuery opens an observer for one query. strategy is the requested
// policy (the event stream overrides it, so a default is fine); the
// query text is truncated to the bundle's MaxQueryBytes.
func (t *Telemetry) StartQuery(id, strategy, query string) *QueryObserver {
	if len(query) > t.maxQueryBytes {
		query = query[:t.maxQueryBytes]
	}
	return &QueryObserver{
		tel: t,
		tr:  QueryTrace{ID: id, Strategy: strategy, Query: query, Start: time.Now()},
	}
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

// RecordEvent implements core.Recorder.
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
		q.failed = [2]string{}
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
		q.tel.StreamFallbacks.Inc(ev.Model)
	case core.EventRoundStall:
		q.tel.RoundStall.Observe(ev.Elapsed.Seconds(), string(ev.Strategy))
	case core.EventPrune:
		q.chunkOf(ev.Model).span.write(true, "pruned", attrText, ev.Reason)
		q.tel.Prunes.Inc(string(ev.Strategy))
	case core.EventModelFailed:
		// Two models may fail in one OUA round, and neither failure may
		// overwrite the other: the attributes accumulate.
		q.failed[0] = strings.TrimPrefix(q.failed[0]+","+ev.Model, ",")
		q.failed[1] = strings.TrimPrefix(q.failed[1]+","+ev.Reason, ",")
		at.SetAttr("failed", q.failed[0])
		at.SetAttr("failed_reason", q.failed[1])
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

// chunkOf returns model's entry in the latest-chunk table, claiming a free
// one for a model not seen yet. Past the table's eight models the last
// entry is shared, and a score may then land on another model's chunk.
func (q *QueryObserver) chunkOf(model string) *modelChunk {
	i := 0
	for i < len(q.chunks)-1 && q.chunks[i].span != nil && q.chunks[i].model != model {
		i++
	}
	return &q.chunks[i]
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
