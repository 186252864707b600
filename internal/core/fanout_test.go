package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"llmms/internal/llm"
	"llmms/internal/tokenizer"
	"llmms/internal/truthfulqa"
)

// referenceFanOut is the plain form of fanOut: one goroutine per job,
// whether or not its pull can wait, and fresh results every round. It is
// the reference TestFanOutMatchesReference holds fanOut to.
func referenceFanOut(o *Orchestrator, ctx context.Context, rs *roundScratch) []fanResult {
	jobs := rs.jobs
	results := make([]fanResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	o.beforeWait()
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j fanJob) {
			defer wg.Done()
			results[i] = o.pull(ctx, j.cand, j.take, j.spent)
		}(i, j)
	}
	wg.Wait()
	return results
}

// tokenAnswer is one model's whole answer to one prompt, token by token:
// ends[i] is the offset in text at which token i ends.
type tokenAnswer struct {
	text string
	ends []int
	ids  []int
}

// bufferedBackend serves scripted answers from streams that are fully
// buffered the moment they open: every drain returns at once, and
// Buffered says so. Its per-round call is an open and a drain of the whole
// budget.
type bufferedBackend struct {
	answers map[string]*tokenAnswer // by model + "\x00" + prompt
}

// engineAnswers records the engine's answer of every model to every
// prompt.
func engineAnswers(t *testing.T, engine *llm.Engine, models, prompts []string) *bufferedBackend {
	t.Helper()
	b := &bufferedBackend{answers: map[string]*tokenAnswer{}}
	for _, m := range models {
		for _, p := range prompts {
			c, err := engine.GenerateChunk(context.Background(), llm.ChunkRequest{Model: m, Prompt: p, MaxTokens: 4096})
			if err != nil {
				t.Fatal(err)
			}
			a := &tokenAnswer{text: c.Text, ids: c.Context}
			for _, id := range c.Context {
				a.ends = append(a.ends, a.end(len(a.ends))+len(engine.Tokenizer().DecodeOne(tokenizer.Token(id))))
			}
			if a.end(len(a.ids)) != len(a.text) {
				t.Fatalf("%s: the tokens of %q do not spell it", m, a.text)
			}
			b.answers[m+"\x00"+p] = a
		}
	}
	return b
}

// end is the offset at which the first n tokens end.
func (a *tokenAnswer) end(n int) int {
	if n == 0 {
		return 0
	}
	return a.ends[n-1]
}

func (b *bufferedBackend) OpenStream(_ context.Context, req llm.ChunkRequest) (llm.ChunkStream, error) {
	a, ok := b.answers[req.Model+"\x00"+req.Prompt]
	if !ok {
		return nil, fmt.Errorf("no answer of %s scripted", req.Model)
	}
	s := &bufferedStream{a: a, pos: min(len(req.Cont), len(a.ids)), limit: len(a.ids), reason: llm.DoneStop}
	if req.MaxTokens > 0 && s.pos+req.MaxTokens < s.limit {
		s.limit, s.reason = s.pos+req.MaxTokens, llm.DoneLength
	}
	return s, nil
}

func (b *bufferedBackend) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	st, err := b.OpenStream(ctx, req)
	if err != nil {
		return llm.Chunk{}, err
	}
	return st.Next(ctx, 0)
}

type bufferedStream struct {
	a          *tokenAnswer
	pos, limit int
	reason     llm.DoneReason
	closed     bool
}

// Next slices the next take tokens (all that are left when take <= 0) out
// of the answer, without allocating.
func (s *bufferedStream) Next(_ context.Context, take int) (llm.Chunk, error) {
	if s.closed {
		return llm.Chunk{}, llm.ErrStreamClosed
	}
	to := s.limit
	if take > 0 && s.pos+take < to {
		to = s.pos + take
	}
	c := llm.Chunk{Text: s.a.text[s.a.end(s.pos):s.a.end(to)], EvalCount: to - s.pos,
		DoneReason: llm.DoneLength, Context: s.a.ids[:to:to], TotalTokens: to}
	if to == s.limit {
		c.Done, c.DoneReason = true, s.reason
	}
	s.pos = to
	return c, nil
}

func (s *bufferedStream) Buffered() int { return s.limit - s.pos }
func (s *bufferedStream) Close() error  { s.closed = true; return nil }

// recordRun runs one query through fan, returning the result and every
// event it emitted, with the clock's fields zeroed.
func recordRun(t *testing.T, fan func(*Orchestrator, context.Context, *roundScratch) []fanResult,
	b Backend, cfg Config, strat Strategy, prompt string) (Result, []Event) {
	t.Helper()
	fanOutRound = fan
	defer func() { fanOutRound = (*Orchestrator).fanOut }()
	var events []Event
	cfg.OnEvent = func(ev Event) {
		ev.Time, ev.Elapsed = time.Time{}, 0
		events = append(events, ev)
	}
	res, err := mustNew(t, b, cfg).Run(context.Background(), strat, prompt)
	if err != nil {
		t.Fatalf("%s: %v", strat, err)
	}
	res.Elapsed = 0
	return res, events
}

// TestFanOutMatchesReference holds fanOut, which starts a goroutine only
// for a pull that may wait, to the goroutine-per-job reference: over
// seeded questions, every multi-model strategy and budgets that end in
// the first round, mid-query and never, both produce the same events in
// the same order and the same Result. The streams are fully buffered, so
// every round after the opens runs on the orchestrating goroutine; behind
// FaultBackend latency every open waits, on goroutines and inline.
func TestFanOutMatchesReference(t *testing.T) {
	data := truthfulqa.Generate(400, 1)
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(data)})
	defer engine.Close()
	models := engineModels()
	var prompts []string
	for _, i := range rand.New(rand.NewSource(2)).Perm(len(data))[:6] {
		prompts = append(prompts, "Question: "+data[i].Question+"\nAnswer:")
	}
	answers := engineAnswers(t, engine, models, prompts)
	backends := []struct {
		name string
		make func() Backend
	}{
		{"buffered", func() Backend { return answers }},
		{"latency", func() Backend {
			fb := NewFaultBackend(answers)
			fb.EnableStreams()
			for i, m := range models {
				fb.SetLatency(m, time.Duration(i+1)*time.Millisecond)
			}
			return fb
		}},
	}
	for _, b := range backends {
		for _, strat := range []Strategy{StrategyOUA, StrategyMAB, StrategyHybrid} {
			for _, budget := range []int{32, 128, 2048} {
				for q, prompt := range prompts {
					cfg := DefaultConfig(models...)
					cfg.MaxTokens = budget
					got, gotEvents := recordRun(t, (*Orchestrator).fanOut, b.make(), cfg, strat, prompt)
					want, wantEvents := recordRun(t, referenceFanOut, b.make(), cfg, strat, prompt)
					name := fmt.Sprintf("%s/%s/%d/q%d", b.name, strat, budget, q)
					if !reflect.DeepEqual(gotEvents, wantEvents) {
						t.Fatalf("%s: events differ from the reference's\n got %s\nwant %s", name, eventLines(gotEvents), eventLines(wantEvents))
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: result %+v, the reference's %+v", name, got, want)
					}
				}
			}
		}
	}
}

func eventLines(events []Event) string {
	var sb strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&sb, "\n  %+v", ev)
	}
	return sb.String()
}

// TestWarmBufferedRoundAllocatesNothing: once the streams are open, a
// round whose drains are all buffered runs on the orchestrating goroutine
// and in the Run's own scratch, so it allocates nothing.
func TestWarmBufferedRoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments goroutines and allocations")
	}
	const tokens = 256
	a := &tokenAnswer{text: strings.Repeat("ab ", tokens)}
	for i := 0; i < tokens; i++ {
		a.ids = append(a.ids, i)
		a.ends = append(a.ends, 3*(i+1))
	}
	models := []string{"m1", "m2", "m3"}
	b := &bufferedBackend{answers: map[string]*tokenAnswer{}}
	for _, m := range models {
		b.answers[m+"\x00"+testPrompt] = a
	}
	o := mustNew(t, b, DefaultConfig(models...))
	var rs roundScratch
	for _, m := range models {
		c := &candidate{model: m}
		rs.jobs = append(rs.jobs, fanJob{cand: c, take: 1})
		o.attachSessions([]*candidate{c}, testPrompt)
	}
	ctx := context.Background()
	o.fanOut(ctx, &rs) // the first round opens the streams
	if n := testing.AllocsPerRun(100, func() { o.fanOut(ctx, &rs) }); n != 0 {
		t.Fatalf("a warm buffered round allocates %.1f times, want 0", n)
	}
	for i, r := range rs.results {
		if !r.streamed || r.prefetched != 1 || r.chunk.EvalCount != 1 {
			t.Fatalf("job %d: %+v, want one buffered token off the stream", i, r)
		}
	}
}
