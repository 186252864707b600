// Smart router: the paper's §9.5 extensions working together over the
// HTTP model daemon.
//
// This example demonstrates three things at once:
//
//  1. Orchestration over the wire: the models are served by the
//     Ollama-compatible daemon (internal/modeld) on a local port, and the
//     orchestrator drives them through the HTTP client — exactly how the
//     paper's computation layer talks to Ollama 0.4.5.
//
//  2. Cognitive routing with semantic task indexing: router.Predictor
//     clusters queries in embedding space, learns which models win per
//     cluster and narrows the candidate pool once it is confident.
//
//  3. Natural-language configuration: a plain instruction reshapes the
//     orchestrator configuration before routing starts.
//
//     go run ./examples/smartrouter
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"llmms/internal/core"
	"llmms/internal/llm"
	"llmms/internal/modeld"
	"llmms/internal/router"
	"llmms/internal/truthfulqa"
)

func main() {
	// 1. Serve the simulated models over HTTP, like the Ollama daemon.
	// 500 questions ⇒ the knowledge base contains a large arithmetic
	// section (Qwen's specialty), which is what the router will learn.
	dataset := truthfulqa.Generate(500, 1)
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(dataset)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, modeld.NewServer(engine)) }()
	client := modeld.New("http://" + ln.Addr().String())
	fmt.Printf("model daemon on %s\n", ln.Addr())

	for _, p := range engine.Profiles() {
		fmt.Printf("  serving %s\n", p.Name)
	}
	fmt.Println()

	// 2. Apply a natural-language configuration instruction.
	instruction := "avoid slow models and keep responses under 80 tokens"
	directives := router.ParseDirectives(instruction)
	base := core.DefaultConfig(llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2)
	base.MaxTokens = 128
	base, changes := directives.Apply(base, engine.Profiles())
	fmt.Printf("instruction: %q\n", instruction)
	for _, c := range changes {
		fmt.Printf("  → %s\n", c)
	}
	fmt.Printf("  model pool is now %v, λ_max=%d\n\n", base.Models, base.MaxTokens)

	// 3. Route queries through the cluster index, over HTTP: predict the
	// fan-out, orchestrate over it, feed the outcome back.
	strategy := directives.StrategyOr(core.StrategyOUA)
	predictor := router.NewPredictor(router.PredictorOptions{TopK: 1})
	// Draw real benchmark questions: several arithmetic ones to warm the
	// index, one misconception question to show the cold-cluster fallback.
	var queries []string
	for _, it := range dataset.ByCategory("Arithmetic").Head(6) {
		queries = append(queries, it.Question)
	}
	queries = append(queries[:2], append([]string{"Are bats blind?"}, queries[2:]...)...)
	for _, q := range queries {
		pred := predictor.Predict(q, base.Models)
		cfg := base
		cfg.Models, cfg.Priors = pred.Models, pred.Priors
		orch, err := core.New(client, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := orch.Run(context.Background(), strategy, q)
		if err != nil {
			log.Fatal(err)
		}
		predictor.Observe(q, res)
		fmt.Printf("Q: %-28s [%s → %v]\n", q, pred.Outcome, pred.Models)
		fmt.Printf("A (%s, %d tokens): %s\n\n", res.Model, res.TokensUsed, res.Answer)
	}

	fmt.Println("cluster index learned:")
	for _, c := range predictor.Status().Index {
		fmt.Printf("  cluster %d (%d queries)", c.ID, c.Queries)
		for _, m := range c.Models {
			fmt.Printf(" %s(n=%.1f, r̄=%.2f)", m.Model, m.Observations, m.Mean)
		}
		fmt.Println()
	}
}
