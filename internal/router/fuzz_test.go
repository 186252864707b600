package router

import (
	"testing"

	"llmms/internal/core"
	"llmms/internal/llm"
)

// FuzzParseDirectives asserts the NL configuration parser is total and
// safe on arbitrary instructions: it never panics, never produces a
// negative budget, and Apply never empties the model pool.
func FuzzParseDirectives(f *testing.F) {
	f.Add("avoid slow models, prioritize qwen")
	f.Add("keep responses under 200 words; use the bandit")
	f.Add("don't use llama and don't use mistral and don't use qwen")
	f.Add("cap at most 0 tokens")
	f.Add("prefer prefer prefer")
	f.Add("")
	profiles := llm.DefaultProfiles()
	f.Fuzz(func(t *testing.T, instruction string) {
		if len(instruction) > 4000 {
			instruction = instruction[:4000]
		}
		d := ParseDirectives(instruction)
		if d.MaxTokens < 0 {
			t.Fatalf("negative budget from %q", instruction)
		}
		if d.Strategy != "" {
			if _, err := core.ParseStrategy(string(d.Strategy)); err != nil {
				t.Fatalf("invalid strategy %q from %q", d.Strategy, instruction)
			}
		}
		cfg := core.DefaultConfig(llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2)
		applied, _ := d.Apply(cfg, profiles)
		if len(applied.Models) == 0 {
			t.Fatalf("Apply emptied the pool for %q", instruction)
		}
		if applied.MaxTokens <= 0 {
			t.Fatalf("Apply produced budget %d for %q", applied.MaxTokens, instruction)
		}
	})
}
