// Command evalrunner regenerates the paper's evaluation (Chapter 8): it
// runs every TruthfulQA question through the five systems — three
// single-model baselines plus LLM-MS OUA and LLM-MS MAB — and prints the
// paper's three figures.
//
// Usage:
//
//	evalrunner                 # all figures, 400 questions
//	evalrunner -figure 8.1     # one figure
//	evalrunner -n 817          # benchmark-scale run
//	evalrunner -csv out.csv    # machine-readable results
//	evalrunner -setup          # print the (simulated) experimental setup
//	evalrunner -breakdown oua  # per-category results for one system
//
// λ_max is 128 — the scaled equivalent of the paper's 2048 (the
// simulated models' answers are 5–15× shorter than real model outputs;
// see DESIGN.md "Calibration notes"). The synthetic dataset is generated
// with seed 1, and eight queries run at a time.
//
// The flags are checked before anything runs: a stray argument, an
// unknown flag, -n below 1, or an unknown -figure or -breakdown is a
// one-line error and exit status 2.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"llmms/internal/bench"
	"llmms/internal/cli"
	"llmms/internal/core"
	"llmms/internal/gpu"
	"llmms/internal/llm"
	"llmms/internal/truthfulqa"
)

// budget is λ_max, the token budget per query (scaled; see DESIGN.md).
const budget = 128

func main() {
	n := flag.Int("n", 400, "number of TruthfulQA questions")
	figure := flag.String("figure", "", "render one figure: 8.1, 8.2, or 8.3 (default all)")
	csvPath := flag.String("csv", "", "also write results as CSV to this file")
	recordsPath := flag.String("records", "", "also write the raw per-query records as JSON to this file")
	datasetPath := flag.String("dataset", "", "TruthfulQA JSON file (default: synthetic generator)")
	setup := flag.Bool("setup", false, "print the experimental setup and exit")
	breakdown := flag.String("breakdown", "", "per-category breakdown for a system (oua, mab, or a model name)")
	ablate := flag.String("ablate", "", "sweep one parameter instead of the main figures: prune_margin, lead_margin, rounds, mab_chunk, alpha, gamma, max_tokens")
	hybrid := flag.Bool("hybrid", false, "add the LLM-MS Hybrid strategy (§8.4 proposal) as a sixth system")
	cli.Parse("evalrunner")
	if *n < 1 {
		cli.Fatal("-n must be at least 1, got %d", *n)
	}
	switch *figure {
	case "", "8.1", "8.2", "8.3":
	default:
		cli.Fatal("unknown figure %q (want 8.1, 8.2 or 8.3)", *figure)
	}
	systems := bench.Systems()
	if *hybrid {
		systems = append(systems, bench.System{Name: "LLM-MS Hybrid", Strategy: core.StrategyHybrid})
	}
	if *breakdown != "" && !slices.ContainsFunc(systems, func(s bench.System) bool { return s.Name == resolveSystem(*breakdown) }) {
		var names []string
		for _, s := range systems {
			names = append(names, s.Name)
		}
		cli.Fatal("unknown system %q for -breakdown (want oua, mab, a model name, or one of: %s)", *breakdown, strings.Join(names, ", "))
	}

	if *setup {
		printSetup()
		return
	}

	var ds truthfulqa.Dataset
	var err error
	if *datasetPath != "" {
		ds, err = truthfulqa.LoadJSON(*datasetPath)
		if err != nil {
			log.Fatalf("evalrunner: %v", err)
		}
	} else {
		ds = truthfulqa.Generate(*n, 1)
	}

	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(ds)})
	cfg := bench.Config{
		Dataset:   ds,
		Systems:   systems,
		MaxTokens: budget,
		Progress: func(done, total int) {
			if done%100 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\r%d/%d", done, total)
			}
		},
	}

	if *ablate != "" {
		param, err := bench.ParseAblationParam(*ablate)
		if err != nil {
			log.Fatalf("evalrunner: %v", err)
		}
		fmt.Fprintf(os.Stderr, "ablating %s over %v (%d questions)...\n",
			param, bench.DefaultAblationValues(param), len(ds))
		ab, err := bench.RunAblation(context.Background(), engine, cfg, param, nil)
		if err != nil {
			log.Fatalf("evalrunner: %v", err)
		}
		fmt.Fprintln(os.Stderr)
		fmt.Println(ab.Render())
		return
	}

	fmt.Fprintf(os.Stderr, "evaluating %d questions × %d systems (λ_max=%d)...\n", len(ds), len(systems), budget)
	report, err := bench.Run(context.Background(), engine, cfg)
	if err != nil {
		log.Fatalf("evalrunner: %v", err)
	}
	fmt.Fprintln(os.Stderr)

	if *figure == "" {
		fmt.Println(report.RenderAll())
	} else {
		fmt.Println(report.Render(bench.Figure(*figure)))
	}

	if *breakdown != "" {
		name := resolveSystem(*breakdown)
		fmt.Printf("\nPer-category breakdown for %s:\n", name)
		fmt.Printf("%-16s %8s %8s %9s %8s\n", "Category", "Reward", "F1", "Accuracy", "Queries")
		for _, c := range report.CategoryBreakdown(name) {
			fmt.Printf("%-16s %8.4f %8.4f %8.1f%% %8d\n", c.System, c.AvgReward, c.AvgF1, c.Accuracy*100, c.Queries)
		}
		fmt.Printf("\nWinner share: %v\n", report.WinnerShare(name))
	}

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(report.CSV()), 0o644); err != nil {
			log.Fatalf("evalrunner: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
	if *recordsPath != "" {
		data, err := json.MarshalIndent(report.Records, "", "  ")
		if err != nil {
			log.Fatalf("evalrunner: %v", err)
		}
		if err := os.WriteFile(*recordsPath, data, 0o644); err != nil {
			log.Fatalf("evalrunner: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d records)\n", *recordsPath, len(report.Records))
	}
}

func resolveSystem(s string) string {
	switch strings.ToLower(s) {
	case "oua":
		return "LLM-MS OUA"
	case "mab":
		return "LLM-MS MAB"
	case "llama", llm.ModelLlama3:
		return "LLaMA-3-8B"
	case "mistral", llm.ModelMistral:
		return "Mistral-7B"
	case "qwen", llm.ModelQwen2:
		return "Qwen-2-7B"
	}
	return s
}

// printSetup reports this reproduction's analogue of the paper's §8.1
// experimental setup, side by side with what the paper used.
func printSetup() {
	cluster := gpu.NewCluster(gpu.TeslaV100)
	fmt.Println("Experimental setup (paper §8.1 → this reproduction)")
	fmt.Println()
	fmt.Println("  Hardware (paper): Intel Xeon Gold 6230 (40 vcores), 98 GB RAM,")
	fmt.Println("                    NVIDIA Tesla V100 32 GB, Ubuntu 24.04, CUDA 12.6")
	fmt.Println("  Hardware (here):  simulated device inventory —")
	fmt.Print(indent(cluster.Stats().String(), "                    "))
	fmt.Println()
	fmt.Println("  Runtime (paper):  Ollama 0.4.5 serving quantized GGUF models")
	fmt.Println("  Runtime (here):   internal/llm simulated engine behind an")
	fmt.Println("                    Ollama-compatible daemon (internal/modeld)")
	fmt.Println()
	fmt.Println("  Models evaluated:")
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	for _, p := range engine.Profiles() {
		fmt.Printf("    %-12s %3s params, %s, ctx %d, ~%.0f tok/s\n",
			p.Name, p.Parameters, p.Quantization, p.ContextWindow, p.TokensPerSec)
	}
	fmt.Println()
	fmt.Println("  Dataset (paper):  TruthfulQA (817 questions)")
	fmt.Println("  Dataset (here):   internal/truthfulqa synthetic generator,")
	fmt.Println("                    same item shape and categories (run datagen)")
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
