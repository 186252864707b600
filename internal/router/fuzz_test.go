package router

import (
	"encoding/json"
	"strings"
	"testing"

	"llmms/internal/core"
	"llmms/internal/embedding"
	"llmms/internal/llm"
	"llmms/internal/vectordb"
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

// FuzzPredictorLoad holds Load to the index it restores: for any cluster
// document, either Load refuses it, or Observe, Rate, Predict and Status on
// what it restored do not panic, and Status encodes (GET /api/router).
// Seeds: a real document of a trained cluster, the two shapes that crashed
// a server after boot, and a weight under 1, whose mean no encoder takes.
func FuzzPredictorLoad(f *testing.F) {
	col, _ := routeCollection(f)
	trained := NewPredictor(PredictorOptions{})
	trained.SetPersistence(col, nil)
	train(trained, geoQueries, geoScores)
	if err := trained.Close(); err != nil {
		f.Fatal(err)
	}
	for _, d := range col.All() {
		f.Add(d.ID, d.Text)
		if i := strings.LastIndex(d.Text, `,"routed"`); i > 0 {
			// One element short: drop the sum's last value.
			j := strings.LastIndex(d.Text[:i], ",")
			f.Add(d.ID, d.Text[:j]+d.Text[i-1:])
		}
	}
	f.Add("c0", `{"stats":{"a":null}}`)
	f.Add("c3", `{"n":9,"sum":[],"routed":-1,"probe_idx":-1,"stats":{}}`)
	sum := "1" + strings.Repeat(",0", embedding.Default().Dim()-1)
	f.Add("c0", `{"n":1,"sum":[`+sum+`],"stats":{"a":{"w":1e-320,"sum":1,"sumsq":1}}}`)
	res := scoredResult("llama3", geoScores)
	f.Fuzz(func(t *testing.T, id, text string) {
		col, _ := routeCollection(t)
		if err := col.Upsert(vectordb.Document{ID: id, Text: text, Embedding: embedding.Vector{0}}); err != nil {
			return
		}
		p := testPredictor(1, 2)
		p.minObservations = 1
		p.SetPersistence(col, nil)
		if _, err := p.Load(); err != nil {
			return
		}
		for _, q := range geoQueries[:4] {
			p.Predict(q, testPool)
			p.Observe(q, res)
			p.Rate(q, "qwen2", 1)
			p.Predict(q, testPool)
		}
		if _, err := json.Marshal(p.Status()); err != nil {
			t.Fatalf("Status of a loaded index does not encode: %v", err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
