package core

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"llmms/internal/llm"
)

func TestHybridSelectsRelevantModel(t *testing.T) {
	o := mustNew(t, threeModels(), DefaultConfig("good", "okay", "bad"))
	res, err := o.Run(context.Background(), StrategyHybrid, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyHybrid {
		t.Fatalf("strategy = %s", res.Strategy)
	}
	if res.Model == "bad" {
		t.Fatalf("hybrid selected the off-topic model: %+v", res)
	}
	if res.Answer == "" || res.TokensUsed == 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestHybridScreensOutOffTopicModel(t *testing.T) {
	cfg := DefaultConfig("good", "okay", "bad")
	cfg.MaxTokens = 240
	o := mustNew(t, threeModels(), cfg)
	res, err := o.Run(context.Background(), StrategyHybrid, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	bad, ok := res.Outcome("bad")
	if !ok {
		t.Fatal("bad model missing from outcomes")
	}
	if !bad.Pruned {
		t.Fatalf("screening did not prune the off-topic model: %+v", res.Outcomes)
	}
	// The pruned model received exactly its screening chunk, no bandit
	// pulls afterwards.
	if bad.Pulls != 1 {
		t.Fatalf("pruned model was pulled %d times", bad.Pulls)
	}
}

func TestHybridBudgetInvariant(t *testing.T) {
	f := func(budgetSeed uint8) bool {
		budget := 8 + int(budgetSeed)%512
		cfg := DefaultConfig("good", "okay", "bad")
		cfg.MaxTokens = budget
		o, err := New(threeModels(), cfg)
		if err != nil {
			return false
		}
		res, err := o.Run(context.Background(), StrategyHybrid, testPrompt)
		if err != nil {
			return false
		}
		if res.TokensUsed > budget {
			return false
		}
		sum := 0
		for _, out := range res.Outcomes {
			sum += out.Tokens
		}
		return sum == res.TokensUsed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridDispatchAndParse(t *testing.T) {
	if s, err := ParseStrategy("hybrid"); err != nil || s != StrategyHybrid {
		t.Fatalf("ParseStrategy(hybrid) = %v, %v", s, err)
	}
	o := mustNew(t, threeModels(), DefaultConfig("good", "okay", "bad"))
	res, err := o.Run(context.Background(), StrategyHybrid, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyHybrid {
		t.Fatalf("dispatch produced %s", res.Strategy)
	}
}

func TestHybridEventStream(t *testing.T) {
	var events []Event
	cfg := DefaultConfig("good", "okay", "bad")
	cfg.MaxTokens = 240
	cfg.OnEvent = func(ev Event) { events = append(events, ev) }
	o := mustNew(t, threeModels(), cfg)
	if _, err := o.Run(context.Background(), StrategyHybrid, testPrompt); err != nil {
		t.Fatal(err)
	}
	seen := map[EventType]bool{}
	for _, ev := range events {
		seen[ev.Type] = true
		if ev.Strategy != StrategyHybrid {
			t.Fatalf("event with wrong strategy: %+v", ev)
		}
	}
	for _, want := range []EventType{EventStart, EventRound, EventChunk, EventScore, EventWinner} {
		if !seen[want] {
			t.Fatalf("no %s events", want)
		}
	}
}

func TestHybridBackendErrorDegradesGracefully(t *testing.T) {
	b := threeModels()
	b.fail = map[string]error{"okay": errBoom}
	cfg := DefaultConfig("good", "okay")
	o := mustNewFast(t, b, cfg)
	res, err := o.Run(context.Background(), StrategyHybrid, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "good" {
		t.Fatalf("winner = %s, want the surviving model", res.Model)
	}
	okay, ok := res.Outcome("okay")
	if !ok || !okay.Failed || !okay.Pruned {
		t.Fatalf("failed outcome = %+v", okay)
	}
}

func TestHybridWithRealEngine(t *testing.T) {
	engine := llm.NewEngine(llm.Options{})
	cfg := DefaultConfig(llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2)
	cfg.MaxTokens = 256
	o := mustNew(t, engine, cfg)
	res, err := o.Run(context.Background(), StrategyHybrid, "Question: Are bats blind?\nAnswer:")
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer == "" || res.TokensUsed > 256 {
		t.Fatalf("result = %+v", res)
	}
	if !strings.Contains(strings.ToLower(res.Answer), "bat") &&
		!strings.Contains(strings.ToLower(res.Answer), "blind") &&
		!strings.Contains(strings.ToLower(res.Answer), "see") {
		t.Fatalf("answer off-topic: %q", res.Answer)
	}
}

func BenchmarkHybrid(b *testing.B) {
	cfg := DefaultConfig("good", "okay", "bad")
	cfg.MaxTokens = 256
	o, err := New(threeModels(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := o.Run(context.Background(), StrategyHybrid, testPrompt); err != nil {
			b.Fatal(err)
		}
	}
}
