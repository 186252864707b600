// Command datagen emits the deterministic synthetic TruthfulQA-style
// dataset as JSON, so the same question set the experiments use can be
// inspected, versioned, or fed back in with llmms -dataset / evalrunner
// -dataset.
//
// Usage:
//
//	datagen [-n 817] [-o truthfulqa.json] [-stats]
//
// The template pool is shuffled with seed 1, the seed every other command
// generates with. A stray argument, an unknown flag or -n below 1 is a
// one-line error and exit status 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"llmms/internal/cli"
	"llmms/internal/truthfulqa"
)

func main() {
	n := flag.Int("n", 817, "number of questions (817 matches the real benchmark's size)")
	out := flag.String("o", "", "output file (default stdout)")
	stats := flag.Bool("stats", false, "print per-category counts instead of the dataset")
	cli.Parse("datagen")
	if *n < 1 {
		cli.Fatal("-n must be at least 1, got %d", *n)
	}

	ds := truthfulqa.Generate(*n, 1)
	if err := ds.Validate(); err != nil {
		log.Fatalf("datagen: generated dataset invalid: %v", err)
	}

	if *stats {
		counts := make(map[string]int)
		for _, it := range ds {
			counts[it.Category]++
		}
		for _, cat := range ds.Categories() {
			fmt.Printf("%-16s %d\n", cat, counts[cat])
		}
		fmt.Printf("%-16s %d\n", "TOTAL", len(ds))
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("datagen: %v", err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ds); err != nil {
		log.Fatalf("datagen: %v", err)
	}
}
