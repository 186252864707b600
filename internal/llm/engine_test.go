package llm

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"llmms/internal/metrics"
	"llmms/internal/truthfulqa"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	return NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Generate(200, 1))})
}

func TestGenerateKnownQuestionStream(t *testing.T) {
	e := newTestEngine(t)
	gen, err := e.Generate(context.Background(), GenRequest{
		Model:  ModelLlama3,
		Prompt: "What happens if you swallow chewing gum?",
	})
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	var batch TokenBatch
	var final Chunk
	tokens := 0
	for more := true; more; {
		final, more = batch.Fill(gen)
		text.Write(batch.Text)
		tokens += len(batch.IDs)
	}
	if tokens < 2 {
		t.Fatalf("expected a multi-token stream, got %d tokens", tokens)
	}
	if final.DoneReason != DoneStop {
		t.Fatalf("done reason = %s, want stop", final.DoneReason)
	}
	if final.EvalCount == 0 || final.TotalTokens != final.EvalCount {
		t.Fatalf("bad counts: %+v", final)
	}
	if !strings.Contains(strings.ToLower(text.String()), "gum") {
		t.Fatalf("answer off-topic: %q", text.String())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	e := newTestEngine(t)
	req := GenRequest{Model: ModelQwen2, Prompt: "What is the capital of France?"}
	a, _, err := e.GenerateAll(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := e.GenerateAll(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("non-deterministic generation:\n%q\n%q", a, b)
	}
}

func TestModelsDiffer(t *testing.T) {
	e := newTestEngine(t)
	prompt := "What happens if you break a mirror?"
	var outs []string
	for _, m := range []string{ModelLlama3, ModelMistral, ModelQwen2} {
		text, _, err := e.GenerateAll(context.Background(), GenRequest{Model: m, Prompt: prompt})
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, text)
	}
	if outs[0] == outs[1] && outs[1] == outs[2] {
		t.Fatalf("all models produced identical text: %q", outs[0])
	}
}

func TestMaxTokensAndContinuation(t *testing.T) {
	e := newTestEngine(t)
	req := GenRequest{Model: ModelLlama3, Prompt: "Are bats blind?", MaxTokens: 5}
	part1, last1, err := e.GenerateAll(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if last1.DoneReason != DoneLength {
		t.Fatalf("done reason = %s, want length", last1.DoneReason)
	}
	if last1.EvalCount != 5 {
		t.Fatalf("eval count = %d, want 5", last1.EvalCount)
	}
	// Continue until natural stop.
	full, lastFull, err := e.GenerateAll(context.Background(), GenRequest{Model: ModelLlama3, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}
	text := part1
	ctxState := last1.Context
	for i := 0; i < 100; i++ {
		part, last, err := e.GenerateAll(context.Background(), GenRequest{
			Model: ModelLlama3, Prompt: "Are bats blind?", MaxTokens: 7, Context: ctxState,
		})
		if err != nil {
			t.Fatal(err)
		}
		text += part
		ctxState = last.Context
		if last.DoneReason == DoneStop {
			break
		}
	}
	if text != full {
		t.Fatalf("continuation does not reassemble full answer:\n%q\n%q", text, full)
	}
	if lastFull.DoneReason != DoneStop {
		t.Fatalf("full generation reason = %s", lastFull.DoneReason)
	}
}

func TestContinuationAtStopReturnsEmpty(t *testing.T) {
	e := newTestEngine(t)
	full, last, err := e.GenerateAll(context.Background(), GenRequest{Model: ModelMistral, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}
	more, last2, err := e.GenerateAll(context.Background(), GenRequest{
		Model: ModelMistral, Prompt: "Are bats blind?", Context: last.Context, MaxTokens: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if more != "" || last2.DoneReason != DoneStop {
		t.Fatalf("continuation past stop: %q %s", more, last2.DoneReason)
	}
	_ = full
}

func TestUnknownModel(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Generate(context.Background(), GenRequest{Model: "gpt-9", Prompt: "hi"}); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestAutoLoadAndStats(t *testing.T) {
	e := newTestEngine(t)
	if e.Loaded(ModelMistral) {
		t.Fatal("model loaded before use")
	}
	_, _, err := e.GenerateAll(context.Background(), GenRequest{Model: ModelMistral, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Loaded(ModelMistral) {
		t.Fatal("model not auto-loaded")
	}
	st, err := e.Stats(ModelMistral)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.TokensGenerated == 0 || st.SimulatedSeconds <= 0 {
		t.Fatalf("bad stats: %+v", st)
	}
	if err := e.Unload(ModelMistral); err != nil {
		t.Fatal(err)
	}
	if e.Loaded(ModelMistral) {
		t.Fatal("model still loaded after unload")
	}
}

func TestLoadUnknownAndUnloadIdempotent(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Load("nope"); err == nil {
		t.Fatal("expected error loading unknown model")
	}
	if err := e.Load(ModelQwen2); err != nil {
		t.Fatal(err)
	}
	if err := e.Load(ModelQwen2); err != nil {
		t.Fatal("double load should be a no-op")
	}
	if err := e.Unload(ModelQwen2); err != nil {
		t.Fatal(err)
	}
	if err := e.Unload(ModelQwen2); err != nil {
		t.Fatal("double unload should be a no-op")
	}
}

func TestGPUAccounting(t *testing.T) {
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Seed())})
	cluster := e.cluster
	if err := e.Load(ModelLlama3); err != nil {
		t.Fatal(err)
	}
	snap := cluster.Stats()
	if snap.Devices[0].MemoryUsed == 0 {
		t.Fatal("load did not reserve VRAM")
	}
	if err := e.Unload(ModelLlama3); err != nil {
		t.Fatal(err)
	}
	if cluster.Stats().Devices[0].MemoryUsed != 0 {
		t.Fatal("unload did not release VRAM")
	}
}

func TestCancelation(t *testing.T) {
	e := NewEngine(Options{
		Knowledge:    NewKnowledge(truthfulqa.Seed()),
		LatencyScale: 0.05, // slow enough to cancel mid-stream
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gen, err := e.Generate(ctx, GenRequest{Model: ModelLlama3, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	var batch TokenBatch
	var final Chunk
	for more := true; more; {
		final, more = batch.Fill(gen)
		if got += len(batch.IDs); got >= 2 {
			cancel()
		}
	}
	if final.DoneReason != DoneCancel {
		t.Fatalf("done reason = %s, want cancel", final.DoneReason)
	}
}

func TestExtractiveContextAnswer(t *testing.T) {
	e := newTestEngine(t)
	prompt := "Context:\n" +
		"The DMSL laboratory operates a virtual server with an NVIDIA Tesla V100 GPU. " +
		"The server runs Ubuntu and hosts the Ollama daemon. " +
		"Coffee in the kitchen is free for students.\n\n" +
		"Question: What GPU does the DMSL server use?\nAnswer:"
	text, _, err := e.GenerateAll(context.Background(), GenRequest{Model: ModelLlama3, Prompt: prompt})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "V100") {
		t.Fatalf("extractive answer missed the relevant sentence: %q", text)
	}
	if !strings.Contains(text, "Based on the provided context") {
		t.Fatalf("extractive answer not grounded: %q", text)
	}
}

func TestGenericFallback(t *testing.T) {
	e := NewEngine(Options{Knowledge: NewKnowledge(nil)})
	text, last, err := e.GenerateAll(context.Background(), GenRequest{
		Model: ModelQwen2, Prompt: "What is the airspeed velocity of an unladen swallow?",
	})
	if err != nil {
		t.Fatal(err)
	}
	if text == "" || last.DoneReason != DoneStop {
		t.Fatalf("generic answer: %q %s", text, last.DoneReason)
	}
}

func TestVerbosityDrivesTokenCounts(t *testing.T) {
	e := newTestEngine(t)
	ds := truthfulqa.Generate(60, 1)
	totals := map[string]int{}
	for _, it := range ds {
		for _, m := range []string{ModelLlama3, ModelMistral} {
			_, last, err := e.GenerateAll(context.Background(), GenRequest{Model: m, Prompt: it.Question})
			if err != nil {
				t.Fatal(err)
			}
			totals[m] += last.EvalCount
		}
	}
	if totals[ModelLlama3] <= totals[ModelMistral] {
		t.Fatalf("verbose llama3 (%d tokens) not above terse mistral (%d)",
			totals[ModelLlama3], totals[ModelMistral])
	}
}

// TestSkillProfilesRealized checks the central simulation property: each
// model's empirical truthfulness tracks its skill profile, so models have
// complementary strengths.
func TestSkillProfilesRealized(t *testing.T) {
	ds := truthfulqa.Generate(400, 1)
	e := NewEngine(Options{Knowledge: NewKnowledge(ds)})
	scorer := metrics.NewScorer(nil, metrics.RewardWeights{})

	acc := map[string]map[string][2]int{} // model -> category -> [truthful, total]
	for _, m := range []string{ModelLlama3, ModelMistral, ModelQwen2} {
		acc[m] = map[string][2]int{}
	}
	for _, it := range ds {
		for _, m := range []string{ModelLlama3, ModelMistral, ModelQwen2} {
			text, _, err := e.GenerateAll(context.Background(), GenRequest{Model: m, Prompt: it.Question})
			if err != nil {
				t.Fatal(err)
			}
			c := acc[m][it.Category]
			if scorer.Truthful(text, it) {
				c[0]++
			}
			c[1]++
			acc[m][it.Category] = c
		}
	}
	rate := func(m, cat string) float64 {
		c := acc[m][cat]
		if c[1] == 0 {
			return 0
		}
		return float64(c[0]) / float64(c[1])
	}
	// Qwen2 must beat Llama3 on arithmetic; Llama3 must beat Qwen2 on
	// misconceptions — the complementary-strengths regime.
	if rate(ModelQwen2, "Arithmetic") <= rate(ModelLlama3, "Arithmetic") {
		t.Errorf("qwen2 arithmetic %.2f not above llama3 %.2f",
			rate(ModelQwen2, "Arithmetic"), rate(ModelLlama3, "Arithmetic"))
	}
	if rate(ModelLlama3, "Misconceptions") <= rate(ModelQwen2, "Misconceptions") {
		t.Errorf("llama3 misconceptions %.2f not above qwen2 %.2f",
			rate(ModelLlama3, "Misconceptions"), rate(ModelQwen2, "Misconceptions"))
	}
}

func TestConcurrentGeneration(t *testing.T) {
	e := newTestEngine(t)
	var wg sync.WaitGroup
	errs := make(chan error, 30)
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			model := []string{ModelLlama3, ModelMistral, ModelQwen2}[i%3]
			_, _, err := e.GenerateAll(context.Background(), GenRequest{
				Model: model, Prompt: "What is the capital of France?",
			})
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestKnowledgeFind(t *testing.T) {
	kb := NewKnowledge(truthfulqa.Seed())
	if _, ok := kb.Find("Are bats blind?"); !ok {
		t.Fatal("exact question not found")
	}
	// Wrapped in RAG sections.
	wrapped := "Context:\nsome retrieved text.\n\nQuestion: Are bats blind?\nAnswer:"
	if _, ok := kb.Find(wrapped); !ok {
		t.Fatal("wrapped question not found")
	}
	if _, ok := kb.Find("What is the meaning of life?"); ok {
		t.Fatal("unknown question should not resolve")
	}
	if _, ok := kb.Find(""); ok {
		t.Fatal("empty prompt should not resolve")
	}
}

func TestSplitSentences(t *testing.T) {
	got := splitSentences("One. Two! Three?\nFour")
	want := []string{"One.", "Two!", "Three?", "Four"}
	if len(got) != len(want) {
		t.Fatalf("splitSentences = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("splitSentences[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRegisterReplaces(t *testing.T) {
	e := newTestEngine(t)
	p, _ := e.Profile(ModelMistral)
	p.DefaultSkill = 0.99
	e.Register(p)
	p2, _ := e.Profile(ModelMistral)
	if p2.DefaultSkill != 0.99 {
		t.Fatal("Register did not replace profile")
	}
	if _, err := e.Profile("nope"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestContextWindowClamp(t *testing.T) {
	e := newTestEngine(t)
	p, _ := e.Profile(ModelMistral)
	p.Name = "tiny-window"
	p.ContextWindow = 8
	e.Register(p)
	text, last, err := e.GenerateAll(context.Background(), GenRequest{
		Model: "tiny-window", Prompt: "Are bats blind?",
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.TotalTokens > 8 {
		t.Fatalf("generated %d tokens past the context window", last.TotalTokens)
	}
	_ = text
}

func BenchmarkGenerateKnown(b *testing.B) {
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Generate(200, 1))})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := e.GenerateAll(context.Background(), GenRequest{
			Model: ModelMistral, Prompt: "What is the capital of France?",
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Seed())})
	profiles := e.Profiles()
	if len(profiles) != 3 {
		t.Fatalf("%d profiles", len(profiles))
	}
	for i := 1; i < len(profiles); i++ {
		if profiles[i-1].Name >= profiles[i].Name {
			t.Fatalf("profiles not sorted: %v", profiles)
		}
	}
	if e.Cluster() == nil || e.Tokenizer() == nil {
		t.Fatal("nil cluster or tokenizer")
	}
	if e.Knowledge() == nil || e.Knowledge().Len() == 0 {
		t.Fatal("knowledge empty")
	}
}

func TestEngineEmbed(t *testing.T) {
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Seed())})
	v, err := e.Embed("mxbai-embed-large", "are bats blind")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		t.Fatal("empty embedding")
	}
	if _, err := e.Embed("no-such-encoder", "text"); err == nil {
		t.Fatal("expected error for unknown encoder")
	}
}

// TestHugeMaxTokens: a budget past the end of the answer is no budget,
// however large — with a context too, where the plan's end once overflowed
// (cursor + MaxTokens) and a makeslice panicked.
func TestHugeMaxTokens(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	const prompt = "Are bats blind?"
	full, err := e.GenerateChunk(ctx, ChunkRequest{Model: ModelMistral, Prompt: prompt})
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.GenerateChunk(ctx, ChunkRequest{Model: ModelMistral, Prompt: prompt, MaxTokens: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, cont := range [][]int{nil, first.Context} {
		c, err := e.GenerateChunk(ctx, ChunkRequest{Model: ModelMistral, Prompt: prompt, MaxTokens: math.MaxInt, Cont: cont})
		if err != nil {
			t.Fatal(err)
		}
		if c.DoneReason != DoneStop || c.EvalCount != full.EvalCount-len(cont) || !strings.HasSuffix(full.Text, c.Text) {
			t.Fatalf("MaxInt after %d tokens: %d tokens (%s) %q, want the rest of %q",
				len(cont), c.EvalCount, c.DoneReason, c.Text, full.Text)
		}
	}
}

// FuzzPlanBudget holds the plan's budget arithmetic for any num_predict
// and any context length: no panic, and the plan ends at the cursor plus
// the budget, cut to the answer's end — within [cursor, answer end].
func FuzzPlanBudget(f *testing.F) {
	f.Add(0, uint16(0))
	f.Add(5, uint16(3))
	f.Add(math.MaxInt, uint16(3))
	f.Add(math.MaxInt-1, uint16(40))
	f.Add(-1, uint16(2))
	f.Add(math.MinInt, uint16(1))
	f.Add(1, uint16(60000))
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Seed())})
	defer e.Close()
	const prompt = "Are bats blind?"
	_, whole, err := e.planGeneration(GenRequest{Model: ModelLlama3, Prompt: prompt})
	if err != nil {
		f.Fatal(err)
	}
	answerEnd := len(whole.ids)
	f.Fuzz(func(t *testing.T, maxTokens int, held uint16) {
		_, plan, err := e.planGeneration(GenRequest{Model: ModelLlama3, Prompt: prompt,
			MaxTokens: maxTokens, Context: make([]int, held)})
		if err != nil {
			t.Fatal(err)
		}
		cursor, end := min(int(held), answerEnd), answerEnd
		if maxTokens > 0 && maxTokens < answerEnd-cursor {
			end = cursor + maxTokens
		}
		if plan.cursor != cursor || len(plan.ids) != end || (plan.reason == DoneLength) != (end < answerEnd) {
			t.Fatalf("num_predict %d after %d tokens: plan [%d, %d) %s, want [%d, %d) of %d",
				maxTokens, held, plan.cursor, len(plan.ids), plan.reason, cursor, end, answerEnd)
		}
	})
}

func TestEngineGenerateChunkPrimitive(t *testing.T) {
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Seed())})
	first, err := e.GenerateChunk(context.Background(), ChunkRequest{Model: ModelMistral, Prompt: "Are bats blind?", MaxTokens: 5})
	if err != nil {
		t.Fatal(err)
	}
	if first.EvalCount != 5 || first.DoneReason != DoneLength {
		t.Fatalf("first chunk = %+v", first)
	}
	second, err := e.GenerateChunk(context.Background(), ChunkRequest{Model: ModelMistral, Prompt: "Are bats blind?", Cont: first.Context})
	if err != nil {
		t.Fatal(err)
	}
	if second.DoneReason != DoneStop {
		t.Fatalf("second chunk = %+v", second)
	}
	full, _, err := e.GenerateAll(context.Background(), GenRequest{Model: ModelMistral, Prompt: "Are bats blind?"})
	if err != nil {
		t.Fatal(err)
	}
	if first.Text+second.Text != full {
		t.Fatalf("chunked generation diverged:\n%q + %q\n!= %q", first.Text, second.Text, full)
	}
}
