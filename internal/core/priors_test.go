package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// Warm-start priors (Config.Priors): the routing layer hands the bandit
// per-arm historical means as pseudo-pulls, so exploitation starts from
// the cluster's history instead of from scratch. The safety properties
// pinned here: priors steer budget, never selection (the winner is
// always chosen on this query's final scores), and a config without
// priors is byte-for-byte the unrouted bandit.

func TestNewCandidatePriors(t *testing.T) {
	o := mustNew(t, threeModels(), Config{
		Models: []string{"good", "okay"},
		Priors: map[string]float64{"good": 0.8},
	})
	c := o.newCandidate("good")
	if math.Abs(c.priorSum-1.6) > 1e-9 || c.priorPulls != 2 {
		t.Fatalf("prior mass = (%v, %v), want (1.6, 2)", c.priorSum, c.priorPulls)
	}
	if c := o.newCandidate("okay"); c.priorSum != 0 || c.priorPulls != 0 {
		t.Fatalf("un-priored arm got mass: %+v", c)
	}
}

func TestUCB1WithPriors(t *testing.T) {
	// An unpulled arm without a prior is infinitely optimistic; with a
	// prior it starts at the prior mean plus the exploration bonus.
	bare := &candidate{}
	if !math.IsInf(ucb1(bare, 1, 1), 1) {
		t.Fatal("unpulled arm without prior must be +Inf")
	}
	warm := &candidate{priorSum: 1.8, priorPulls: 2}
	got := ucb1(warm, 1, 4)
	want := 0.9 + math.Sqrt(2*math.Log(4)/2)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("warm ucb1 = %v, want %v", got, want)
	}
	if m := meanReward(warm); math.Abs(m-0.9) > 1e-9 {
		t.Fatalf("warm mean = %v, want prior mean 0.9", m)
	}
	// Real pulls blend with — and eventually wash out — the prior.
	warm.pulls, warm.rewardSum = 8, 8*0.3
	if m := meanReward(warm); math.Abs(m-(1.8+2.4)/10) > 1e-9 {
		t.Fatalf("blended mean = %v, want 0.42", m)
	}
}

func TestPriorsSteerBudget(t *testing.T) {
	long := strings.Repeat("The sky is blue on a clear day due to Rayleigh scattering of sunlight. ", 8)
	cfg := DefaultConfig("twin-a", "twin-b")
	cfg.MaxTokens = 256
	cfg.MABChunk = 8
	cfg.Priors = map[string]float64{"twin-a": 0.1, "twin-b": 0.9}
	o := mustNew(t, newFakeBackend(map[string]string{"twin-a": long, "twin-b": long}), cfg)
	res, err := o.Run(context.Background(), StrategyMAB, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := res.Outcome("twin-a")
	b, _ := res.Outcome("twin-b")
	// The answers are identical, so only the priors break the symmetry.
	if b.Pulls <= a.Pulls {
		t.Fatalf("priors failed to steer budget: twin-a=%d twin-b=%d pulls", a.Pulls, b.Pulls)
	}
}

func TestPriorsNeverOverrideSelection(t *testing.T) {
	// A stale prior worships the off-topic model; the winner must still
	// be chosen on this query's actual final scores.
	cfg := DefaultConfig("good", "bad")
	cfg.Priors = map[string]float64{"bad": 0.99, "good": 0.01}
	o := mustNew(t, threeModels(), cfg)
	for _, strat := range []Strategy{StrategyMAB, StrategyHybrid} {
		res, err := o.Run(context.Background(), strat, testPrompt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Model != "good" {
			t.Fatalf("%s selected %q under a bad prior, want good", strat, res.Model)
		}
	}
}

func TestNoPriorsMatchesUnroutedRun(t *testing.T) {
	run := func(cfg Config, strat Strategy) Result {
		o := mustNew(t, threeModels(), cfg)
		res, err := o.Run(context.Background(), strat, testPrompt)
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0 // wall clock is the only nondeterministic field
		return res
	}
	for _, strat := range []Strategy{StrategyOUA, StrategyMAB, StrategyHybrid} {
		base := DefaultConfig("good", "okay", "bad")
		withNil := base
		withEmpty := base
		withEmpty.Priors = map[string]float64{}
		if got, want := run(withEmpty, strat), run(withNil, strat); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: empty priors diverged from nil priors:\n got %+v\nwant %+v", strat, got, want)
		}
	}
}

func TestOUAIgnoresPriors(t *testing.T) {
	run := func(priors map[string]float64) Result {
		cfg := DefaultConfig("good", "okay", "bad")
		cfg.Priors = priors
		o := mustNew(t, threeModels(), cfg)
		res, err := o.Run(context.Background(), StrategyOUA, testPrompt)
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0
		return res
	}
	with := run(map[string]float64{"bad": 0.99})
	without := run(nil)
	if !reflect.DeepEqual(with, without) {
		t.Fatalf("OUA must ignore priors:\n with %+v\nwithout %+v", with, without)
	}
}
