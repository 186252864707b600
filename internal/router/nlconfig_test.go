package router

import (
	"testing"

	"llmms/internal/core"
	"llmms/internal/llm"
)

func TestParseDirectivesModels(t *testing.T) {
	d := ParseDirectives("Avoid llama, and prioritize qwen.")
	if len(d.AvoidModels) != 1 || d.AvoidModels[0] != llm.ModelLlama3 {
		t.Fatalf("avoid = %v", d.AvoidModels)
	}
	if len(d.PreferModels) != 1 || d.PreferModels[0] != llm.ModelQwen2 {
		t.Fatalf("prefer = %v", d.PreferModels)
	}
	if len(d.Notes) != 2 {
		t.Fatalf("notes = %v", d.Notes)
	}
}

func TestParseDirectivesBudgetAndStrategy(t *testing.T) {
	d := ParseDirectives("Keep responses under 200 words; use the bandit strategy.")
	if d.MaxTokens != 400 {
		t.Fatalf("budget = %d (200 words ≈ 400 tokens)", d.MaxTokens)
	}
	if d.Strategy != core.StrategyMAB {
		t.Fatalf("strategy = %s", d.Strategy)
	}
	d2 := ParseDirectives("cap output at most 150 tokens and use oua")
	if d2.MaxTokens != 150 || d2.Strategy != core.StrategyOUA {
		t.Fatalf("d2 = %+v", d2)
	}
	if ParseDirectives("hello there").MaxTokens != 0 {
		t.Fatal("budget hallucinated from no numbers")
	}
}

func TestParseDirectivesSlow(t *testing.T) {
	d := ParseDirectives("avoid slow models")
	if !d.AvoidSlow {
		t.Fatalf("d = %+v", d)
	}
}

func TestDirectivesApply(t *testing.T) {
	profiles := llm.DefaultProfiles()
	cfg := core.DefaultConfig(llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2)

	d := ParseDirectives("avoid slow models, prioritize qwen, keep responses under 100 tokens")
	got, log := d.Apply(cfg, profiles)
	// llama3 is the slowest profile (95 tok/s).
	for _, m := range got.Models {
		if m == llm.ModelLlama3 {
			t.Fatalf("slowest model kept: %v", got.Models)
		}
	}
	if got.Models[0] != llm.ModelQwen2 {
		t.Fatalf("preferred model not first: %v", got.Models)
	}
	if got.MaxTokens != 100 {
		t.Fatalf("budget = %d", got.MaxTokens)
	}
	if len(log) == 0 {
		t.Fatal("no change log")
	}
}

func TestDirectivesApplyNeverEmptiesPool(t *testing.T) {
	cfg := core.DefaultConfig(llm.ModelLlama3)
	d := ParseDirectives("avoid llama")
	got, log := d.Apply(cfg, llm.DefaultProfiles())
	if len(got.Models) == 0 {
		t.Fatal("directives emptied the model pool")
	}
	found := false
	for _, l := range log {
		if l == "directives would exclude every model; keeping the original pool" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no refusal note in log: %v", log)
	}
}

func TestStrategyOr(t *testing.T) {
	if s := (Directives{}).StrategyOr(core.StrategyOUA); s != core.StrategyOUA {
		t.Fatalf("default = %s", s)
	}
	if s := (Directives{Strategy: core.StrategyMAB}).StrategyOr(core.StrategyOUA); s != core.StrategyMAB {
		t.Fatalf("override = %s", s)
	}
}
