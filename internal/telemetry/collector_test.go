package telemetry

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"llmms/internal/core"
)

// feedQuery drives one synthetic two-round OUA query through an
// observer bound to a root and an orchestration span: two models chunk in
// round 1, one is pruned, one retries, two fail, and llama3 wins. The
// caller holds the root.
func feedQuery(tel *Telemetry, id string) (*QueryObserver, *Span) {
	obs := tel.StartQuery(id, "oua", "why is the sky blue?")
	_, root := NewTracer("llmms").StartRoot(context.Background(), "query")
	root.Hold()
	orch := root.Child("orchestrate")
	obs.BindSpans(root, orch)
	base := obs.tr.Start
	at := func(d time.Duration) time.Time { return base.Add(d) }

	obs.RecordEvent(core.Event{Type: core.EventStart, Strategy: core.StrategyOUA, Time: at(0)})
	obs.RecordEvent(core.Event{Type: core.EventRound, Strategy: core.StrategyOUA, Round: 1,
		Time: at(time.Millisecond), Elapsed: time.Millisecond})
	obs.RecordEvent(core.Event{Type: core.EventChunk, Strategy: core.StrategyOUA, Round: 1,
		Model: "llama3", Tokens: 10, Time: at(11 * time.Millisecond), Elapsed: 10 * time.Millisecond, Attempts: 1})
	obs.RecordEvent(core.Event{Type: core.EventChunk, Strategy: core.StrategyOUA, Round: 1,
		Model: "mistral", Tokens: 8, Time: at(16 * time.Millisecond), Elapsed: 15 * time.Millisecond, Attempts: 3})
	obs.RecordEvent(core.Event{Type: core.EventScorePass, Strategy: core.StrategyOUA, Round: 1,
		Time: at(17 * time.Millisecond), Elapsed: 40 * time.Microsecond})
	obs.RecordEvent(core.Event{Type: core.EventScore, Strategy: core.StrategyOUA, Round: 1,
		Model: "llama3", Score: 0.9, Time: at(17 * time.Millisecond)})
	obs.RecordEvent(core.Event{Type: core.EventScore, Strategy: core.StrategyOUA, Round: 1,
		Model: "mistral", Score: 0.2, Time: at(17 * time.Millisecond)})
	obs.RecordEvent(core.Event{Type: core.EventPrune, Strategy: core.StrategyOUA, Round: 1,
		Model: "mistral", Score: 0.2, Reason: "trailing by 0.700", Time: at(18 * time.Millisecond)})
	obs.RecordEvent(core.Event{Type: core.EventRound, Strategy: core.StrategyOUA, Round: 2,
		Time: at(20 * time.Millisecond), Elapsed: 20 * time.Millisecond})
	obs.RecordEvent(core.Event{Type: core.EventModelFailed, Strategy: core.StrategyOUA, Round: 2,
		Model: "qwen2", Attempts: 4, Reason: "backend down", Time: at(25 * time.Millisecond)})
	obs.RecordEvent(core.Event{Type: core.EventModelFailed, Strategy: core.StrategyOUA, Round: 2,
		Model: "phi3", Attempts: 1, Reason: "no such model", Time: at(26 * time.Millisecond)})
	obs.RecordEvent(core.Event{Type: core.EventScore, Strategy: core.StrategyOUA, Round: 2,
		Model: "llama3", Score: 0.95, Time: at(27 * time.Millisecond)})
	obs.RecordEvent(core.Event{Type: core.EventWinner, Strategy: core.StrategyOUA, Reason: "budget settled",
		Model: "llama3", Tokens: 18, Score: 0.95, Time: at(30 * time.Millisecond), Elapsed: 30 * time.Millisecond})
	orch.End(nil)
	root.End(nil)
	return obs, root
}

func TestObserverBuildsTrace(t *testing.T) {
	tel := New(Options{})
	obs, root := feedQuery(tel, "q1")
	defer root.Release()
	tr := obs.Finish(nil)

	if tr.ID != "q1" || tr.Strategy != "oua" || tr.Outcome != "ok" || tr.TraceID != root.TraceID() {
		t.Fatalf("trace header wrong: %+v", tr)
	}
	if tr.Winner != "llama3" || tr.TokensUsed != 18 {
		t.Errorf("winner fields wrong: winner=%q tokens=%d", tr.Winner, tr.TokensUsed)
	}
	// Retries: mistral chunk took 3 attempts (2 retries), qwen2 failed
	// after 4 attempts (3 retries).
	if tr.Rounds != 2 || tr.Retries != 5 || tr.SpanCount != 6 {
		t.Errorf("rounds %d retries %d spans %d, want 2, 5 and 6", tr.Rounds, tr.Retries, tr.SpanCount)
	}

	// Every fact is a span or an attribute of one, written as it happened.
	recs := root.Records()
	byID := map[string]SpanRecord{}
	var rounds, chunks []SpanRecord
	for _, r := range recs {
		byID[r.SpanID] = r
		switch r.Name {
		case "round":
			rounds = append(rounds, r)
		case "chunk":
			chunks = append(chunks, r)
		}
		if r.TraceID != tr.TraceID || r.Service != "llmms" || r.Status != "ok" {
			t.Errorf("span %q: trace %q service %q status %q", r.Name, r.TraceID, r.Service, r.Status)
		}
	}
	if len(recs) != 6 || len(rounds) != 2 || len(chunks) != 2 {
		t.Fatalf("%d records, %d rounds, %d chunks; want 6, 2, 2", len(recs), len(rounds), len(chunks))
	}
	// Round 1 opened at 1ms and round 2 at 20ms, so round 1's wall clock
	// is the 19ms between them; round 2 is sealed by Finish at the
	// winner's 30ms.
	base := obs.tr.Start
	r1, r2 := rounds[0], rounds[1]
	if !r1.Start.Equal(base.Add(time.Millisecond)) || r1.Duration != 19*time.Millisecond || byID[r1.ParentID].Name != "orchestrate" {
		t.Errorf("round 1 span wrong: %+v under %q", r1, byID[r1.ParentID].Name)
	}
	if !r2.Start.Equal(base.Add(20*time.Millisecond)) || r2.Duration != 10*time.Millisecond {
		t.Errorf("final round not sealed at the query's end: %+v", r2)
	}
	if !reflect.DeepEqual(r1.Attrs, map[string]string{"round": "1"}) {
		t.Errorf("round 1 attrs %v", r1.Attrs)
	}
	// Two models failed in round 2: neither failure overwrote the other.
	// The winner is an attribute of the round the decision fell in.
	if want := map[string]string{"round": "2", "failed": "qwen2,phi3",
		"failed_reason": "backend down,no such model",
		"winner":        "llama3", "winner_reason": "budget settled"}; !reflect.DeepEqual(r2.Attrs, want) {
		t.Errorf("round 2 attrs %v, want %v", r2.Attrs, want)
	}
	// Chunk spans begin when the call did (event time minus elapsed), sit
	// under their round, and carry the model's score as of its last
	// scoring pass and the prune that retired it.
	c1, c2 := chunks[0], chunks[1]
	if c1.ParentID != r1.SpanID || !c1.Start.Equal(base.Add(time.Millisecond)) || c1.Duration != 10*time.Millisecond {
		t.Errorf("chunk 1 span wrong: %+v", c1)
	}
	if want := map[string]string{"round": "1", "model": "llama3", "tokens": "10", "score": "0.950"}; !reflect.DeepEqual(c1.Attrs, want) {
		t.Errorf("chunk 1 attrs %v, want %v", c1.Attrs, want)
	}
	if want := map[string]string{"round": "1", "model": "mistral", "tokens": "8", "attempts": "3", "score": "0.200",
		"pruned": "trailing by 0.700"}; !reflect.DeepEqual(c2.Attrs, want) || c2.ParentID != r1.SpanID {
		t.Errorf("chunk 2 attrs %v, want %v", c2.Attrs, want)
	}

	// The same run fed the aggregate metrics.
	if got := tel.Queries.Value("oua", "ok"); got != 1 {
		t.Errorf("queries counter = %v, want 1", got)
	}
	if got := tel.QueryLatency.Count("oua"); got != 1 {
		t.Errorf("query latency count = %v, want 1", got)
	}
	if got := tel.ChunkLatency.Count("llama3"); got != 1 {
		t.Errorf("chunk latency count = %v, want 1", got)
	}
	if got := tel.Tokens.Value("mistral"); got != 8 {
		t.Errorf("tokens = %v, want 8", got)
	}
	if got := tel.Retries.Value("mistral"); got != 2 {
		t.Errorf("mistral retries = %v, want 2", got)
	}
	if got := tel.Retries.Value("qwen2"); got != 3 {
		t.Errorf("qwen2 retries = %v, want 3", got)
	}
	if got := tel.ModelFailures.Value("qwen2"); got != 1 {
		t.Errorf("model failures = %v, want 1", got)
	}
	if got := tel.Prunes.Value("oua"); got != 1 {
		t.Errorf("prunes = %v, want 1", got)
	}
	if got := tel.ScoreLatency.Count("oua"); got != 1 {
		t.Errorf("score pass latency count = %v, want 1", got)
	}
	if got := tel.TracesStored.Value(); got != 1 {
		t.Errorf("traces gauge = %v, want 1", got)
	}
	// The store holds the arena, not a copy: the same spans read back.
	stored, ok := tel.Traces.Get("q1")
	if !ok || !reflect.DeepEqual(stored.Spans, recs) || stored.Rounds != 2 {
		t.Errorf("stored trace (found %v) has %d spans, want the arena's %d", ok, len(stored.Spans), len(recs))
	}
}

// TestObserverOrphansAndSingle: a chunk with no open round of its number —
// the single-model strategy emits no round events — parents under the
// orchestration span, and so does its winner.
func TestObserverOrphansAndSingle(t *testing.T) {
	tel := New(Options{})
	obs := tel.StartQuery("q", "single", "x")
	_, root := NewTracer("llmms").StartRoot(context.Background(), "query")
	root.Hold()
	defer root.Release()
	orch := root.Child("orchestrate")
	obs.BindSpans(root, orch)
	now := time.Now()
	obs.RecordEvent(core.Event{Type: core.EventChunk, Strategy: core.StrategySingle, Model: "m", Tokens: 5, Time: now, Elapsed: time.Millisecond})
	obs.RecordEvent(core.Event{Type: core.EventWinner, Strategy: core.StrategySingle, Model: "m", Tokens: 5, Time: now, Elapsed: time.Millisecond})
	orch.End(nil)
	root.End(nil)
	if tr := obs.Finish(nil); tr.Rounds != 0 || tr.SpanCount != 3 {
		t.Fatalf("header %+v, want no rounds and 3 spans", tr)
	}
	recs := root.Records() // in end order: chunk, orchestrate, query
	if recs[0].Name != "chunk" || recs[0].ParentID != recs[1].SpanID || !reflect.DeepEqual(recs[1].Attrs, map[string]string{"winner": "m"}) {
		t.Fatalf("chunk %+v not under the orchestration span %+v with the winner", recs[0], recs[1])
	}
}

// TestObserverNineModels: past eight models every score and prune still
// lands on its own model's chunk, where the ninth model used to share the
// eighth's table slot and take its score.
func TestObserverNineModels(t *testing.T) {
	tel := New(Options{})
	obs := tel.StartQuery("q", "oua", "x")
	_, root := NewTracer("llmms").StartRoot(context.Background(), "query")
	root.Hold()
	defer root.Release()
	orch := root.Child("orchestrate")
	obs.BindSpans(root, orch)
	now := time.Now()
	obs.RecordEvent(core.Event{Type: core.EventRound, Round: 1, Time: now})
	for i := range 9 {
		obs.RecordEvent(core.Event{Type: core.EventChunk, Round: 1, Model: fmt.Sprint("m", i), Tokens: 4, Time: now})
	}
	for i := range 9 {
		obs.RecordEvent(core.Event{Type: core.EventScore, Round: 1, Model: fmt.Sprint("m", i), Score: float64(i) / 10, Time: now})
	}
	obs.RecordEvent(core.Event{Type: core.EventPrune, Round: 1, Model: "m7", Reason: "trailing", Time: now})
	orch.End(nil)
	root.End(nil)
	obs.Finish(nil)
	chunks := 0
	for _, r := range root.Records() {
		if r.Name != "chunk" {
			continue
		}
		chunks++
		var i int
		fmt.Sscanf(r.Attrs["model"], "m%d", &i)
		if want := fmt.Sprintf("%.3f", float64(i)/10); r.Attrs["score"] != want {
			t.Errorf("%s's chunk has score %q, want %s", r.Attrs["model"], r.Attrs["score"], want)
		}
		if pruned := r.Attrs["pruned"] != ""; pruned != (i == 7) {
			t.Errorf("%s's chunk pruned %v", r.Attrs["model"], pruned)
		}
	}
	if chunks != 9 {
		t.Fatalf("%d chunk spans, want 9", chunks)
	}
}

func TestObserverFinishOutcomes(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{core.ErrAllModelsFailed, "all_models_failed"},
		{context.Canceled, "canceled"},
		{context.DeadlineExceeded, "canceled"},
		{errors.New("boom"), "error"},
	}
	for _, c := range cases {
		tel := New(Options{})
		tr := tel.StartQuery("q", "mab", "x").Finish(c.err)
		if tr.Outcome != c.want {
			t.Errorf("Finish(%v) outcome = %q, want %q", c.err, tr.Outcome, c.want)
		}
		if got := tel.Queries.Value("mab", c.want); got != 1 {
			t.Errorf("Finish(%v): counter{mab,%s} = %v, want 1", c.err, c.want, got)
		}
		if c.err != nil && tr.Error == "" {
			t.Errorf("Finish(%v): error text not recorded", c.err)
		}
	}
}

func TestObserverFinishIdempotent(t *testing.T) {
	tel := New(Options{})
	obs := tel.StartQuery("q", "oua", "x")
	obs.Finish(nil)
	obs.RecordEvent(core.Event{Type: core.EventChunk, Model: "m", Tokens: 5, Time: time.Now()})
	obs.RecordEvent(core.Event{Type: core.EventRound, Round: 1, Time: time.Now()})
	tr := obs.Finish(errors.New("late"))
	if tr.Outcome != "ok" || tr.Rounds != 0 {
		t.Errorf("post-finish activity mutated the trace: %+v", tr)
	}
	if got := tel.Queries.Value("oua", "ok"); got != 1 {
		t.Errorf("double finish double-counted: %v", got)
	}
}

func TestStartQueryTruncatesQueryText(t *testing.T) {
	tel := New(Options{})
	tel.maxQueryBytes = 10
	tr := tel.StartQuery("q", "oua", strings.Repeat("a", 100)).Finish(nil)
	if len(tr.Query) != 10 {
		t.Errorf("query stored with %d bytes, want 10", len(tr.Query))
	}
}

// TestQueryTextCutAtRuneBoundary: the stored query (cut to maxQueryBytes)
// and the listed one (cut to summaryQueryLimit) end on a whole rune, where
// a byte cut stored half an "é" and /api/traces showed U+FFFD.
func TestQueryTextCutAtRuneBoundary(t *testing.T) {
	tel := New(Options{})
	tel.maxQueryBytes = summaryQueryLimit + 3
	for _, query := range []string{strings.Repeat("é", 100), "x" + strings.Repeat("é", 100)} {
		tel.StartQuery(query, "oua", query).Finish(nil)
		stored, _ := tel.Traces.Get(query)
		listed := tel.Traces.List(1)[0]
		if !utf8.ValidString(stored.Query) || !strings.HasPrefix(query, stored.Query) || len(stored.Query) < summaryQueryLimit {
			t.Errorf("stored query %q is not a whole-rune prefix of its question", stored.Query)
		}
		cut, ok := strings.CutSuffix(listed.Query, "…")
		if !ok || !utf8.ValidString(listed.Query) || !strings.HasPrefix(query, cut) || len(cut) < summaryQueryLimit-1 {
			t.Errorf("listed query %q is not a whole-rune prefix of its question plus …", listed.Query)
		}
	}
}

func TestStrategyOverriddenByEventStream(t *testing.T) {
	tel := New(Options{})
	obs := tel.StartQuery("q", "oua", "x")
	obs.RecordEvent(core.Event{Type: core.EventStart, Strategy: core.StrategyHybrid, Time: time.Now()})
	tr := obs.Finish(nil)
	if tr.Strategy != string(core.StrategyHybrid) {
		t.Errorf("strategy = %q, want hybrid", tr.Strategy)
	}
}
