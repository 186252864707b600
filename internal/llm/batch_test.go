package llm

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"llmms/internal/truthfulqa"
)

// batchTestPrompts exercise the planner's main shapes: known question,
// extractive context, generic fallback.
var batchTestPrompts = []string{
	"Are bats blind?",
	"What is the capital of France?",
	"Context:\nThe DMSL laboratory operates a virtual server with an NVIDIA Tesla V100 GPU.\n\nQuestion: What GPU does the DMSL server use?\nAnswer:",
	"Tell me something surprising about typography.",
}

// drain takes tokens off a generation until it ends and returns their
// text and the terminal chunk; each, when set, sees every filled batch.
func drain(g *Generation, each func(b *TokenBatch)) (string, Chunk) {
	var batch TokenBatch
	var text []byte
	for {
		final, more := batch.Fill(g)
		text = append(text, batch.Text...)
		if each != nil {
			each(&batch)
		}
		if !more {
			return string(text), final
		}
	}
}

// firstToken blocks until g has decoded a token, failing the test if it
// ended without one.
func firstToken(t *testing.T, g *Generation) string {
	t.Helper()
	var batch TokenBatch
	if _, more := batch.Fill(g); !more {
		t.Fatal("generation ended on its first fill")
	}
	return string(batch.Text)
}

// TestCappedContinuationMatchesPlan checks chunked continuation through
// the scheduler: a capped call ends on "length" with the plan's first
// tokens, and the call resumed from its Context hands out exactly the rest
// of the plan.
func TestCappedContinuationMatchesPlan(t *testing.T) {
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Generate(200, 1))})
	defer e.Close()
	for _, model := range []string{ModelLlama3, ModelMistral, ModelQwen2} {
		for _, prompt := range batchTestPrompts {
			req := GenRequest{Model: model, Prompt: prompt}
			_, plan, err := e.planGeneration(req)
			if err != nil {
				t.Fatal(err)
			}
			want := e.tok.Decode(tokensOf(plan.ids))

			req.MaxTokens = 5
			head, last, err := e.GenerateAll(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if last.DoneReason != DoneLength || last.EvalCount != 5 || !slices.Equal(last.Context, plan.ids[:5]) {
				t.Fatalf("%s %q: capped call ended on %+v", model, prompt, last)
			}
			req.Context, req.MaxTokens = last.Context, 0
			tail, last, err := e.GenerateAll(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if head+tail != want {
				t.Fatalf("%s %q: capped %q + continued %q != plan %q", model, prompt, head, tail, want)
			}
			if last.DoneReason != DoneStop || last.TotalTokens != len(plan.ids) || last.EvalCount != len(plan.ids)-5 {
				t.Fatalf("%s %q: continuation ended on %+v, plan has %d tokens", model, prompt, last, len(plan.ids))
			}
		}
	}
}

// TestBatchAdmissionBetweenSteps verifies continuous batching's defining
// property: a sequence submitted while another is mid-decode joins the
// running batch and streams tokens before the first finishes, rather
// than queuing behind it.
func TestBatchAdmissionBetweenSteps(t *testing.T) {
	e := NewEngine(Options{
		Knowledge:    NewKnowledge(truthfulqa.Seed()),
		LatencyScale: 0.05,
	})
	defer e.Close()

	a, err := e.Generate(context.Background(), GenRequest{Model: ModelLlama3, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until A is demonstrably mid-decode.
	firstToken(t, a)
	b, err := e.Generate(context.Background(), GenRequest{Model: ModelLlama3, Prompt: "What is the capital of France?"})
	if err != nil {
		t.Fatal(err)
	}

	bFirst := make(chan time.Time, 1)
	var bDone sync.WaitGroup
	bDone.Add(1)
	go func() {
		defer bDone.Done()
		first := true
		drain(b, func(batch *TokenBatch) {
			if first && len(batch.Text) > 0 {
				bFirst <- time.Now()
				first = false
			}
		})
	}()
	drain(a, nil)
	aDone := time.Now()
	bDone.Wait()
	select {
	case first := <-bFirst:
		if !first.Before(aDone) {
			t.Fatalf("B's first token (%v) did not precede A's completion (%v)", first, aDone)
		}
	default:
		t.Fatal("B produced no text")
	}
}

// TestBatchFairness pins the budget to one token per step and checks
// round-robin scheduling: a short late arrival finishes while the long
// early stream is still decoding, instead of starving behind it.
func TestBatchFairness(t *testing.T) {
	e := NewEngine(Options{
		Knowledge:    NewKnowledge(truthfulqa.Seed()),
		LatencyScale: 0.02,
	})
	e.maxBatch = 1
	defer e.Close()

	a, err := e.Generate(context.Background(), GenRequest{Model: ModelLlama3, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}
	firstToken(t, a)
	b, err := e.Generate(context.Background(), GenRequest{Model: ModelLlama3, Prompt: "What is the capital of France?", MaxTokens: 2})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan string, 2)
	go func() {
		drain(a, nil)
		done <- "a"
	}()
	go func() {
		drain(b, nil)
		done <- "b"
	}()
	if first := <-done; first != "b" {
		t.Fatalf("long stream finished before the 2-token late arrival; round-robin starved B")
	}
	<-done
}

// TestBatchDrainOnUnload starts a generation, unloads the model
// mid-decode, and verifies the in-flight sequence finishes cleanly
// (full text, natural stop) while the model ends up unloaded; the next
// generation auto-loads a fresh scheduler.
func TestBatchDrainOnUnload(t *testing.T) {
	kb := NewKnowledge(truthfulqa.Seed())
	e := NewEngine(Options{Knowledge: kb, LatencyScale: 0.02})
	defer e.Close()

	want, _, err := NewEngine(Options{Knowledge: kb}).GenerateAll(
		context.Background(), GenRequest{Model: ModelMistral, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}

	gen, err := e.Generate(context.Background(), GenRequest{Model: ModelMistral, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}
	text := firstToken(t, gen)
	unloaded := make(chan error, 1)
	go func() { unloaded <- e.Unload(ModelMistral) }()

	rest, last := drain(gen, nil)
	if err := <-unloaded; err != nil {
		t.Fatal(err)
	}
	if text+rest != want {
		t.Fatalf("drained text %q != reference %q", text+rest, want)
	}
	if last.DoneReason != DoneStop {
		t.Fatalf("drained stream ended %q, want stop", last.DoneReason)
	}
	if last.TotalTokens != len(last.Context) {
		t.Fatalf("terminal chunk inconsistent: total %d, context %d", last.TotalTokens, len(last.Context))
	}
	if e.Loaded(ModelMistral) {
		t.Fatal("model still loaded after Unload")
	}

	// The model reloads with a fresh scheduler and still matches the
	// reference.
	got, _, err := e.GenerateAll(context.Background(), GenRequest{Model: ModelMistral, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-unload text %q != reference %q", got, want)
	}
}

// TestBatchConcurrentAdmitCancelUnload hammers one model with
// concurrent generations, mid-stream cancellations, and unloads; run
// under -race (scripts/check.sh does) it doubles as the scheduler's
// data-race test. Every stream must still terminate with a Done chunk.
func TestBatchConcurrentAdmitCancelUnload(t *testing.T) {
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Seed())})
	defer e.Close()

	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			gen, err := e.Generate(ctx, GenRequest{Model: ModelQwen2, Prompt: "Are bats blind?"})
			if err != nil {
				t.Error(err)
				return
			}
			n := 0
			_, last := drain(gen, func(b *TokenBatch) {
				if n += len(b.IDs); i%3 == 0 && n >= 2 {
					cancel()
				}
			})
			if !last.Done || last.EvalCount != n {
				t.Errorf("stream %d ended on %+v after %d tokens", i, last, n)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = e.Unload(ModelQwen2)
		}()
	}
	wg.Wait()
}

// TestGenerateAbandonedConsumerNoLeak is the goroutine-leak regression
// test: a consumer that cancels and walks away mid-stream, or never takes
// a token at all, must not strand the producer — it only ever advances a
// watermark — and an abandoned stream session leaves the OpenStreams
// count.
func TestGenerateAbandonedConsumerNoLeak(t *testing.T) {
	e := NewEngine(Options{
		Knowledge:    NewKnowledge(truthfulqa.Seed()),
		LatencyScale: 0.01,
	})
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		gen, err := e.Generate(ctx, GenRequest{Model: ModelLlama3, Prompt: "Are bats blind?"})
		if err != nil {
			t.Fatal(err)
		}
		firstToken(t, gen) // one token, then abandon without draining
		cancel()
	}
	// Also abandon an uncanceled generation outright, and a stream
	// session nobody reads or closes: the producer runs to completion
	// regardless.
	if _, err := e.Generate(context.Background(), GenRequest{Model: ModelLlama3, Prompt: "Are bats blind?"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OpenStream(context.Background(), ChunkRequest{Model: ModelLlama3, Prompt: "Are bats blind?"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+1 && e.OpenStreams() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchStats checks the scheduler snapshot plumbing the daemon's
// engine.generate span and the benchmark read.
func TestBatchStats(t *testing.T) {
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Seed())})
	defer e.Close()

	if _, ok := e.BatchStats(ModelLlama3); ok {
		t.Fatal("BatchStats reported a scheduler before any generation")
	}
	text, _, err := e.GenerateAll(context.Background(), GenRequest{Model: ModelLlama3, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := e.BatchStats(ModelLlama3)
	if !ok {
		t.Fatal("no scheduler after generation")
	}
	if st.Steps == 0 || st.Decoded == 0 {
		t.Fatalf("scheduler recorded no work: %+v", st)
	}
	if st.Active != 0 || st.Pending != 0 {
		t.Fatalf("idle scheduler reports occupancy: %+v", st)
	}
	if text == "" {
		t.Fatal("empty generation")
	}
}

// TestBatchHooksFire verifies the observer plumbing the telemetry layer
// hangs off the scheduler.
func TestBatchHooksFire(t *testing.T) {
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Seed())})
	defer e.Close()

	var mu sync.Mutex
	steps, admits, idles := 0, 0, 0
	e.SetBatchHooks(BatchHooks{
		Step: func(model string, occupancy, decoded int, dur time.Duration) {
			mu.Lock()
			steps++
			mu.Unlock()
		},
		Admit: func(model string, waited time.Duration) {
			mu.Lock()
			admits++
			mu.Unlock()
		},
		Idle: func(model string) {
			mu.Lock()
			idles++
			mu.Unlock()
		},
	})
	if _, _, err := e.GenerateAll(context.Background(), GenRequest{Model: ModelLlama3, Prompt: "Are bats blind?"}); err != nil {
		t.Fatal(err)
	}
	// Idle fires when the loop parks after the batch drains; give it a
	// moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		s, a, i := steps, admits, idles
		mu.Unlock()
		if s > 0 && a > 0 && i > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hooks did not all fire: steps=%d admits=%d idles=%d", s, a, i)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
