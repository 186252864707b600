package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"llmms/internal/embedding"
	"llmms/internal/llm"
)

// TestConcurrentRunsShareOneEncoder runs 64 OUA/MAB/Hybrid queries at once
// on one orchestrator — so one encoder and its accumulator pool, and the
// scorer pool, serve them all — and requires each Result to deep-equal the
// same query run alone: a vector borrowed by one query is never seen by
// another. Its value is running under -race.
func TestConcurrentRunsShareOneEncoder(t *testing.T) {
	cfg := DefaultConfig(engineModels()...)
	cfg.MaxTokens = 256
	prompts := []string{
		enginePrompt,
		"Question: Are bats blind?\nAnswer:",
		"Question: What is the capital of Brazil?\nAnswer:",
		"Question: Can you see the Great Wall of China from space?\nAnswer:",
	}
	strategies := []Strategy{StrategyOUA, StrategyMAB, StrategyHybrid}
	type job struct {
		strat  Strategy
		prompt string
	}
	run := func(o *Orchestrator, j job) (Result, error) {
		res, err := o.Run(context.Background(), j.strat, j.prompt)
		res.Elapsed = 0
		return res, err
	}
	alone := map[job]Result{}
	for _, s := range strategies {
		for _, p := range prompts {
			j := job{s, p}
			res, err := run(mustNew(t, llm.NewEngine(llm.Options{}), cfg), j)
			if err != nil {
				t.Fatalf("%s alone: %v", s, err)
			}
			alone[j] = res
		}
	}

	o := mustNew(t, llm.NewEngine(llm.Options{}), cfg)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		j := job{strategies[i%len(strategies)], prompts[(i/len(strategies))%len(prompts)]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := run(o, j)
			if err != nil {
				t.Errorf("%s concurrent: %v", j.strat, err)
				return
			}
			if !reflect.DeepEqual(res, alone[j]) {
				t.Errorf("%s on %q: concurrent result %+v differs from the same query run alone %+v",
					j.strat, j.prompt, res, alone[j])
			}
		}()
	}
	wg.Wait()
}

// TestWarmScorerPassAllocatesNothing: once the scorer and accumulator
// pools are warm, a scoring pass — new text folded into three candidates'
// accumulators, their views materialized in place, the agreement sum and
// the similarities updated — allocates nothing.
func TestWarmScorerPassAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	o := mustNew(t, threeModels(), DefaultConfig("good", "okay", "bad"))
	full := strings.Repeat("the wall is not visible from low earth orbit and astronauts agree ", 20)
	newCands := func() []*candidate {
		cands := make([]*candidate, 3)
		for i := range cands {
			cands[i] = &candidate{model: fmt.Sprintf("m%d", i)}
		}
		return cands
	}
	// Warm the pools: four accumulators that have seen every feature of
	// the text and ended on a partial word longer than any in it (so their
	// pending-feature scratch is sized), and a scorer whose agreement sum
	// has the encoder's width.
	var accs []*embedding.Accumulator
	for range 4 {
		_, acc := embedding.Borrow(o.cfg.Encoder, full+"unfinishedwordlongerthananyother")
		accs = append(accs, acc)
	}
	for _, acc := range accs {
		acc.Release()
	}
	sc := o.newScorer(testPrompt)
	cands := newCands()
	for _, c := range cands {
		c.response = full
	}
	sc.pass(cands)
	sc.release()

	sc = o.newScorer(testPrompt)
	defer sc.release()
	cands = newCands()
	n := 0
	allocs := testing.AllocsPerRun(50, func() {
		n += 7 // mid-word cuts: the accumulators carry a partial word
		for _, c := range cands {
			c.response = full[:n]
		}
		sc.pass(cands)
	})
	if allocs != 0 {
		t.Fatalf("a warm scoring pass allocates %.1f times, want 0", allocs)
	}
}
