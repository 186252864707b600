package llm

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"llmms/internal/tokenizer"
	"llmms/internal/truthfulqa"
)

// drained is everything a consumer got off one generation, flattened: the
// text, one id and one end offset per token, and the terminal chunk.
type drained struct {
	text  string
	ids   []int
	ends  []int
	final Chunk
}

// The three ways a consumer can pace itself against the producer.
var consumers = map[string]func(g *Generation) drained{
	// One gulp: everything is decoded before the consumer first looks.
	"gulp": func(g *Generation) drained {
		for _, over := g.progress(); !over; _, over = g.progress() {
			time.Sleep(50 * time.Microsecond)
		}
		return fillAll(g, 0)
	},
	// As fast as the tokens come: batches of one when decode is paced.
	"eager": func(g *Generation) drained { return fillAll(g, 0) },
	// A consumer slower than the producer.
	"stalling": func(g *Generation) drained { return fillAll(g, 300*time.Microsecond) },
}

func fillAll(g *Generation, stall time.Duration) drained {
	var d drained
	var batch TokenBatch
	for {
		final, more := batch.Fill(g)
		off := len(d.text)
		d.text += string(batch.Text)
		d.ids = append(d.ids, batch.IDs...)
		for _, e := range batch.Ends {
			d.ends = append(d.ends, off+e)
		}
		if !more {
			d.final = final
			return d
		}
		time.Sleep(stall)
	}
}

// TestGenerationMatchesPlan is the handle's equivalence property: for
// every model, paced and unpaced, fresh, continued and cut by the budget
// in the middle of a character, what Fill hands out — however the consumer
// paces itself — is the plan: the answer's tokens from the cursor to the
// end, their bytes, and the terminal chunk. The plan is computed before
// the scheduler runs, so it is the reference the scheduler is held to.
func TestGenerationMatchesPlan(t *testing.T) {
	kb := NewKnowledge(truthfulqa.Generate(817, 1))
	tok := tokenizer.Default()
	const prompt = "What is the capital of Brazil?"
	midCharacter := 0
	for _, scale := range []float64{0, 0.01} {
		e := NewEngine(Options{Knowledge: kb, LatencyScale: scale})
		for _, model := range []string{ModelLlama3, ModelMistral, ModelQwen2} {
			_, plan, err := e.planGeneration(GenRequest{Model: model, Prompt: prompt})
			if err != nil {
				t.Fatal(err)
			}
			full := plan.ids
			// The budget that ends the call inside the answer's first
			// multi-byte character, where it has one.
			cut := 0
			for i := range full {
				if !utf8.ValidString(tok.Decode(tokensOf(full[:i+1]))) {
					cut = i + 1
					break
				}
			}
			cases := map[string]GenRequest{
				"fresh":     {Model: model, Prompt: prompt},
				"continued": {Model: model, Prompt: prompt, Context: full[:3], MaxTokens: 6},
			}
			if cut > 0 {
				cases["cut mid-character"] = GenRequest{Model: model, Prompt: prompt, MaxTokens: cut}
				midCharacter++
			}
			for name, req := range cases {
				cursor, end, reason := len(req.Context), len(full), DoneStop
				if req.MaxTokens > 0 && cursor+req.MaxTokens < end {
					end, reason = cursor+req.MaxTokens, DoneLength
				}
				want := drained{ids: full[cursor:end], final: Chunk{Done: true, DoneReason: reason,
					Context: full[:end], EvalCount: end - cursor, TotalTokens: end}}
				for _, id := range want.ids {
					want.text += tok.DecodeOne(tokenizer.Token(id))
					want.ends = append(want.ends, len(want.text))
				}
				if name == "cut mid-character" && utf8.ValidString(want.text) {
					t.Fatalf("%s: the cut at %d tokens does not split a character: %q", model, cut, want.text)
				}
				for pace, consume := range consumers {
					gen, err := e.Generate(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					if got := consume(gen); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s scale=%v %s, %s consumer:\n got %+v\nwant %+v",
							model, scale, name, pace, got, want)
					}
				}
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if midCharacter == 0 {
		t.Fatal("no model's answer has a multi-byte character to cut")
	}
}

func tokensOf(ids []int) []tokenizer.Token {
	out := make([]tokenizer.Token, len(ids))
	for i, id := range ids {
		out[i] = tokenizer.Token(id)
	}
	return out
}

// TestGenerationCancelAccountsForHandedOutTokens cancels mid-generation
// and checks the terminal chunk's Context is exactly the tokens the
// consumer was handed — the resume point must match what was delivered.
func TestGenerationCancelAccountsForHandedOutTokens(t *testing.T) {
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Seed()), LatencyScale: 0.05})
	ctx, cancel := context.WithCancel(context.Background())
	gen, err := e.Generate(ctx, GenRequest{Model: ModelLlama3, Prompt: "Are bats blind?", Context: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var handed []int
	_, final := drain(gen, func(b *TokenBatch) {
		if handed = append(handed, b.IDs...); len(handed) >= 3 {
			cancel()
		}
	})
	cancel()
	if final.DoneReason != DoneCancel || final.EvalCount != len(handed) || final.TotalTokens != 2+len(handed) ||
		!reflect.DeepEqual(final.Context[2:], handed) {
		t.Fatalf("canceled after %v, terminal %+v", handed, final)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStreamInterruptedWaits checks the in-process stream's two ways
// out of a blocked Next: the caller's context ending hands out what there
// is as a partial slice (then the error), and Close from another goroutine
// fails it with ErrStreamClosed without waiting for the next decode step.
func TestEngineStreamInterruptedWaits(t *testing.T) {
	// A llama3 step of about 10 ms.
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Seed()), LatencyScale: 1})
	s, err := e.OpenStream(context.Background(), ChunkRequest{Model: ModelLlama3, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Next(context.Background(), 1)
	if err != nil || first.EvalCount != 1 || first.Done {
		t.Fatalf("first slice = %+v, %v", first, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	part, err := s.Next(ctx, 1000)
	if err != nil || part.EvalCount == 0 || part.Done || part.DoneReason != DoneLength ||
		len(part.Context) != 1+part.EvalCount {
		t.Fatalf("interrupted slice = %+v, %v; want a partial one", part, err)
	}
	s.Close()
	if _, err := s.Next(context.Background(), 1); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Next after Close err = %v, want ErrStreamClosed", err)
	}
	waitForStreams(t, e, 0)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Prefill alone takes 0.4 s at this scale: a Next blocked on the first
	// token that returns sooner was woken by Close, not by the scheduler.
	slow := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Seed()), LatencyScale: 20})
	defer slow.Close()
	s, err = slow.OpenStream(context.Background(), ChunkRequest{Model: ModelLlama3, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := s.Next(context.Background(), 0)
		blocked <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it block
	closedAt := time.Now()
	s.Close()
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("blocked Next err = %v, want ErrStreamClosed", err)
		}
		if waited := time.Since(closedAt); waited > 200*time.Millisecond {
			t.Errorf("Close took %v to unblock Next: it waited for the decode step", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Next")
	}
	waitForStreams(t, slow, 0)
}

// TestDecodeClockKeepsNominalPace pins the decode clock: on a paced
// engine no token of a lone sequence arrives before its nominal time, and
// the whole answer takes its nominal time plus a bounded lateness — the
// host's timer overshoot is paid once, not once per token.
func TestDecodeClockKeepsNominalPace(t *testing.T) {
	const scale = 0.2 // a llama3 step of about 2 ms
	const prompt = "Are bats blind?"
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Seed()), LatencyScale: scale})
	profile, err := e.Profile(ModelLlama3)
	if err != nil {
		t.Fatal(err)
	}
	step := time.Duration(scale / profile.TokensPerSec * float64(time.Second))
	prefill := time.Duration(scale * float64(e.tok.Count(prompt)) / profile.PrefillRate() * float64(time.Second))

	start := time.Now()
	gen, err := e.Generate(context.Background(), GenRequest{Model: ModelLlama3, Prompt: prompt})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	_, final := drain(gen, func(b *TokenBatch) {
		if n += len(b.IDs); len(b.IDs) > 0 && time.Since(start) < time.Duration(n)*step {
			t.Errorf("token %d arrived after %v, before its nominal %v", n, time.Since(start), time.Duration(n)*step)
		}
	})
	took := time.Since(start)
	if n < 50 || final.EvalCount != n {
		t.Fatalf("%d tokens, terminal %+v; want a long answer", n, final)
	}
	// Generous: -race boxes are slow. Sleeping a whole step per token
	// on this answer overshoots by more than this on any box.
	nominal := prefill + time.Duration(n)*step
	t.Logf("%d tokens took %v, nominal %v", n, took, nominal)
	if limit := nominal + max(nominal/4, 50*time.Millisecond); took > limit {
		t.Errorf("%d tokens took %v, nominal %v, limit %v", n, took, nominal, limit)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStreamEndsAtPlanEnd pins the slice that reaches the plan's
// last token as the terminal one even when the producer has advanced the
// watermark there but not yet marked the generation over: which round sees
// a model finish must not depend on where between those two stores the
// consumer's read fell.
func TestEngineStreamEndsAtPlanEnd(t *testing.T) {
	tok := tokenizer.Default()
	ids := tok.AppendIDs(nil, "Bats are not blind.")
	gen := newGeneration(tok, genPlan{ids: ids, reason: DoneStop}, nil)
	gen.advance(len(ids)) // decoded to the end, finish not yet called
	s := &engineStream{gen: gen}
	got, err := s.Next(context.Background(), len(ids))
	if err != nil || !got.Done || got.DoneReason != DoneStop || got.EvalCount != len(ids) {
		t.Fatalf("slice to the plan's end = %+v, %v; want the terminal chunk", got, err)
	}
}

// TestFillEndsAtPlanEnd is the daemon's side of the same window: the
// batch that reaches the plan's last token is the last one, with the
// plan's reason, even before the producer marks the generation over — so
// the line writer puts those tokens on the done line, never on a token
// line a reader could drain without the end.
func TestFillEndsAtPlanEnd(t *testing.T) {
	tok := tokenizer.Default()
	ids := tok.AppendIDs(nil, "Bats are not blind.")
	gen := newGeneration(tok, genPlan{ids: ids, reason: DoneLength}, nil)
	gen.advance(len(ids)) // decoded to the end, finish not yet called
	var b TokenBatch
	final, more := b.Fill(gen)
	if more || !final.Done || final.DoneReason != DoneLength || final.EvalCount != len(ids) || len(b.IDs) != len(ids) {
		t.Fatalf("fill to the plan's end = %+v, more %v, %d ids; want the terminal batch of %d", final, more, len(b.IDs), len(ids))
	}
}
