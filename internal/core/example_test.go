package core_test

import (
	"context"
	"fmt"

	"llmms/internal/core"
	"llmms/internal/llm"
	"llmms/internal/truthfulqa"
)

// ExampleOrchestrator_Run shows the minimal end-to-end use of the
// orchestration API: build the engine, configure the candidate pool, run
// one query under the Overperformers–Underperformers Algorithm.
func ExampleOrchestrator_Run() {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	cfg := core.DefaultConfig(llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2)
	cfg.MaxTokens = 256
	orch, err := core.New(engine, cfg)
	if err != nil {
		panic(err)
	}
	res, err := orch.Run(context.Background(), core.StrategyOUA, "Do antibiotics work against viruses?")
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", res.Strategy)
	fmt.Println("candidates:", len(res.Outcomes))
	fmt.Println("within budget:", res.TokensUsed <= cfg.MaxTokens)
	// Output:
	// strategy: oua
	// candidates: 3
	// within budget: true
}
