package llm

import (
	"context"
	"runtime"
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

// TestBatchedMatchesUnbatched is the determinism contract: the batch
// scheduler must produce byte-identical text and identical final-chunk
// metadata to the goroutine-per-stream path, including under MaxTokens
// clamps and continuation.
func TestBatchedMatchesUnbatched(t *testing.T) {
	kb := NewKnowledge(truthfulqa.Generate(200, 1))
	batched := NewEngine(Options{Knowledge: kb})
	unbatched := NewEngine(Options{Knowledge: kb, DisableBatching: true})
	defer batched.Close()

	for _, model := range []string{ModelLlama3, ModelMistral, ModelQwen2} {
		for _, prompt := range batchTestPrompts {
			req := GenRequest{Model: model, Prompt: prompt}
			bText, bLast, err := batched.GenerateAll(context.Background(), req)
			if err != nil {
				t.Fatalf("%s batched: %v", model, err)
			}
			uText, uLast, err := unbatched.GenerateAll(context.Background(), req)
			if err != nil {
				t.Fatalf("%s unbatched: %v", model, err)
			}
			if bText != uText {
				t.Fatalf("%s %q: batched text %q != unbatched %q", model, prompt, bText, uText)
			}
			if bLast.DoneReason != uLast.DoneReason || bLast.EvalCount != uLast.EvalCount ||
				bLast.TotalTokens != uLast.TotalTokens || len(bLast.Context) != len(uLast.Context) {
				t.Fatalf("%s %q: final chunks differ: %+v vs %+v", model, prompt, bLast, uLast)
			}
		}
	}

	// Chunked continuation: two capped calls resume identically.
	req := GenRequest{Model: ModelLlama3, Prompt: "Are bats blind?", MaxTokens: 5}
	bText, bLast, err := batched.GenerateAll(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	uText, uLast, err := unbatched.GenerateAll(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if bText != uText || bLast.DoneReason != DoneLength {
		t.Fatalf("capped: %q (%s) vs %q (%s)", bText, bLast.DoneReason, uText, uLast.DoneReason)
	}
	req.Context = bLast.Context
	req.MaxTokens = 0
	bText2, _, err := batched.GenerateAll(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Context = uLast.Context
	uText2, _, err := unbatched.GenerateAll(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if bText2 != uText2 {
		t.Fatalf("continuation: batched %q != unbatched %q", bText2, uText2)
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
		Knowledge:      NewKnowledge(truthfulqa.Seed()),
		LatencyScale:   0.02,
		MaxBatchTokens: 1,
	})
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
	// unbatched reference.
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
// count. Covers both execution paths.
func TestGenerateAbandonedConsumerNoLeak(t *testing.T) {
	for _, disable := range []bool{false, true} {
		e := NewEngine(Options{
			Knowledge:       NewKnowledge(truthfulqa.Seed()),
			LatencyScale:    0.01,
			DisableBatching: disable,
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
				t.Fatalf("disable=%v: goroutines leaked: %d before, %d after", disable, before, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestBatchStats checks the scheduler snapshot plumbing used by the
// daemon's /api/ps.
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
	if !e.BatchingEnabled() {
		t.Fatal("BatchingEnabled false on default options")
	}

	off := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Seed()), DisableBatching: true})
	if off.BatchingEnabled() {
		t.Fatal("BatchingEnabled true with DisableBatching")
	}
	if _, _, err := off.GenerateAll(context.Background(), GenRequest{Model: ModelLlama3, Prompt: "Are bats blind?"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := off.BatchStats(ModelLlama3); ok {
		t.Fatal("BatchStats reported a scheduler with batching disabled")
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
