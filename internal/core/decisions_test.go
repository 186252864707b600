package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"llmms/internal/llm"
	"llmms/internal/llm/llmtest"
	"llmms/internal/truthfulqa"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/decisions.golden from this run")

const decisionsGolden = "testdata/decisions.golden"

// TestDecisionLog pins every decision the multi-model strategies take to a
// log recorded before the strategies were refactored: one line per case
// with the winner, the budget spent, the rounds, the early exit, every
// model's (tokens, pulls, pruned, done reason, response) and a hash of the
// event sequence. Production runs the way it ships — the in-process engine
// behind stream sessions — and the rows no seeded question reaches (priors,
// a dead model, a model that dies mid-query, a stream that breaks
// mid-answer, a chunk-only backend) are scripted. A refactor of the strategies that moves one byte of this file
// changed a decision; regenerate it (go test -run TestDecisionLog -update)
// only for a change that means to.
func TestDecisionLog(t *testing.T) {
	engine, prompts := gridEngine(t)
	var log bytes.Buffer
	record := func(name string, b Backend, cfg Config, retry retryPolicy, strat Strategy, prompt string) {
		t.Helper()
		events := sha256.New()
		cfg.OnEvent = func(ev Event) {
			// Time, Elapsed and Prefetched depend on the clock, and a
			// score_pass event carries nothing else.
			if ev.Type == EventScorePass {
				return
			}
			fmt.Fprintf(events, "%s|%d|%s|%d|%s|%s|%.9f|%.9f|%.9f\n", ev.Type, ev.Round, ev.Model,
				ev.Tokens, ev.Reason, ev.Text, round9(ev.Score), round9(ev.QuerySim), round9(ev.InterSim))
		}
		o := mustNew(t, b, cfg)
		o.retry = retry
		res, err := o.Run(context.Background(), strat, prompt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&log, "%s winner=%s tokens=%d rounds=%d early=%v", name, res.Model, res.TokensUsed, res.Rounds, res.EarlyExit)
		for _, m := range cfg.Models {
			o, _ := res.Outcome(m)
			text := sha256.Sum256([]byte(o.Response))
			fmt.Fprintf(&log, " [%s t=%d p=%d pruned=%v failed=%v done=%q text=%x]", m, o.Tokens, o.Pulls,
				o.Pruned, o.Failed, o.DoneReason, text[:8])
		}
		fmt.Fprintf(&log, " events=%x\n", events.Sum(nil)[:16])
	}

	forEachGridCase(prompts, func(name string, strat Strategy, cfg Config, prompt string) {
		record(name, engine, cfg, defaultRetry, strat, prompt)
	})

	// The rows no seeded question reaches, on the three-model pool at 128
	// tokens over the first four questions, with two attempts per chunk
	// and no backoff.
	pool := gridPools[1]
	base := func() Config {
		cfg := DefaultConfig(pool...)
		cfg.MaxTokens = 128
		return cfg
	}
	retry := retryPolicy{attempts: 2, chunkTimeout: defaultRetry.chunkTimeout}
	for _, strat := range gridStrategies {
		for q, prompt := range prompts[:4] {
			if strat != StrategyOUA {
				cfg := base()
				cfg.Priors = map[string]float64{llm.ModelLlama3: 0.2, llm.ModelMistral: 0.9, llm.ModelQwen2: 0.5}
				record(fmt.Sprintf("%s/priors/q%02d", strat, q), engine, cfg, retry, strat, prompt)
			}

			dead := llmtest.NewFaultBackend(engine)
			dead.EnableStreams()
			dead.FailStreamOpen(llm.ModelMistral, errBoom)
			dead.FailAlways(llm.ModelMistral, errBoom)
			record(fmt.Sprintf("%s/dead/q%02d", strat, q), dead, base(), retry, strat, prompt)

			// Dies on its second pull: the first chunk call succeeds, the
			// next one fails both attempts.
			late := llmtest.NewFaultBackend(engine)
			late.FailCall(llm.ModelLlama3, 2, errBoom)
			late.FailCall(llm.ModelLlama3, 3, errBoom)
			record(fmt.Sprintf("%s/late/q%02d", strat, q), late, base(), retry, strat, prompt)

			broken := llmtest.NewFaultBackend(engine)
			broken.EnableStreams()
			broken.BreakStreamAfter(llm.ModelLlama3, 10)
			record(fmt.Sprintf("%s/broken/q%02d", strat, q), broken, base(), retry, strat, prompt)

			record(fmt.Sprintf("%s/chunkonly/q%02d", strat, q), chunkOnlyWrapper{inner: engine}, base(), retry, strat, prompt)
		}
	}

	// The single baseline on each of the grid's models, alone in its pool.
	for _, budget := range []int{32, 128, 2048} {
		for _, m := range gridPools[1] {
			for q, prompt := range prompts {
				cfg := DefaultConfig(m)
				cfg.MaxTokens = budget
				record(fmt.Sprintf("single/%d/%s/q%02d", budget, m, q), engine, cfg, defaultRetry, StrategySingle, prompt)
			}
		}
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(decisionsGolden, log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(decisionsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(log.Bytes(), want) {
		return
	}
	got, old := strings.Split(log.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(old); i++ {
		if got[i] != old[i] {
			t.Fatalf("decision log line %d changed:\n got %s\nwant %s", i+1, got[i], old[i])
		}
	}
	t.Fatalf("decision log has %d lines, golden %d", len(got), len(old))
}

// The fault-free grid TestDecisionLog pins and TestOneStreamPerCandidate
// runs: every strategy, three budgets, a two- and a three-model pool.
var (
	gridStrategies = []Strategy{StrategyOUA, StrategyMAB, StrategyHybrid}
	gridPools      = [][]string{
		{llm.ModelLlama3, llm.ModelMistral},
		{llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2},
	}
)

// gridEngine returns an engine over 400 seeded questions and the 24 of
// them the grid asks, as prompts. The engine closes with the test.
func gridEngine(t *testing.T) (*llm.Engine, []string) {
	data := truthfulqa.Generate(400, 1)
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(data)})
	t.Cleanup(func() { engine.Close() })
	var prompts []string
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(data))[:24] {
		prompts = append(prompts, "Question: "+data[i].Question+"\nAnswer:")
	}
	return engine, prompts
}

// forEachGridCase calls visit once per grid case, in the golden's order,
// with the case's name ("oua/128/3/q00"), strategy, config and prompt.
func forEachGridCase(prompts []string, visit func(name string, strat Strategy, cfg Config, prompt string)) {
	for _, strat := range gridStrategies {
		for _, budget := range []int{32, 128, 2048} {
			for _, pool := range gridPools {
				for q, prompt := range prompts {
					cfg := DefaultConfig(pool...)
					cfg.MaxTokens = budget
					visit(fmt.Sprintf("%s/%d/%d/q%02d", strat, budget, len(pool), q), strat, cfg, prompt)
				}
			}
		}
	}
}

// round9 rounds to 1e-9, folding -0 into 0.
func round9(x float64) float64 { return math.Round(x*1e9)/1e9 + 0 }
