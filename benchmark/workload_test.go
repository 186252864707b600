package main

import (
	"fmt"
	"sort"
	"testing"

	"llmms/internal/embedding"
	"llmms/internal/llm"
	"llmms/internal/qcache"
	"llmms/internal/rag"
	"llmms/internal/truthfulqa"
)

// fullPlan generates a workload's plan at the frozen counts.
func fullPlan(t *testing.T, name string, seed int64) *plan {
	t.Helper()
	spec, ok := findWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	c := runConfig{Spec: spec, Seconds: defaultSeconds}
	measured, warmup := c.counts()
	p, err := generate(spec, seed, measured, warmup)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Same seed → byte-identical operation list, pinned; another seed →
// another list. A changed hash means every number measured before the
// change is no longer comparable: change it only with the baseline.
func TestPlansAreDeterministicAndPinned(t *testing.T) {
	pinned := map[string]string{
		"fanout_paced":   "4327e87f30b8fa59",
		"fanout_unpaced": "1bb3ebb34a6b6eff",
		"repeat_mix":     "bd79dfad62a461e9",
		"agent_sessions": "7b616de0f984164c",
	}
	for _, w := range workloads {
		a, b := fullPlan(t, w.Name, 1), fullPlan(t, w.Name, 1)
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed gave two different plans", w.Name)
		}
		if got := a.hash()[:16]; got != pinned[w.Name] {
			t.Errorf("%s: plan hash %s, pinned %s", w.Name, got, pinned[w.Name])
		}
		if other := fullPlan(t, w.Name, 2); other.hash() == a.hash() {
			t.Errorf("%s: seeds 1 and 2 gave the same plan", w.Name)
		}
	}
}

// Every query of every plan resolves, in the engine's own knowledge base,
// to the item the generator says it is about — paraphrases included.
func TestEveryQuestionIsInTheKnowledgeBase(t *testing.T) {
	ds := truthfulqa.Generate(datasetSize, datasetSeed)
	kb := llm.NewKnowledge(ds)
	for _, w := range workloads {
		p := fullPlan(t, w.Name, 3)
		for _, o := range append(append([]op(nil), p.Warmup...), p.ops()...) {
			if o.Kind != kindQuery {
				continue
			}
			it, ok := kb.Find(rag.BuildPrompt(rag.PromptParts{Question: o.Query}))
			if !ok || it.Question != ds[o.Item].Question {
				t.Fatalf("%s: query %q resolves to %q, want item %d %q", w.Name, o.Query, it.Question, o.Item, ds[o.Item].Question)
			}
		}
	}
}

// The fan-out workloads ask the same multiset of (question, strategy)
// whatever the seed: only order and pairing change, so truthfulness and
// token spend are comparable across seeds.
func TestFanoutPopulationIsSeedInvariant(t *testing.T) {
	multiset := func(p *plan) []string {
		var keys []string
		for _, o := range p.ops() {
			if o.MaxTokens != fanoutBudget || o.Class != classFanout || o.Turn != 0 {
				t.Fatalf("unexpected fan-out op %+v", o)
			}
			keys = append(keys, fmt.Sprintf("%d/%s", o.Item, o.Strategy))
		}
		sort.Strings(keys)
		return keys
	}
	for _, name := range []string{"fanout_paced", "fanout_unpaced"} {
		a, b := multiset(fullPlan(t, name, 1)), multiset(fullPlan(t, name, 99))
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d ops", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: multisets differ at %d: %s vs %s", name, i, a[i], b[i])
			}
		}
		count := map[string]int{}
		for _, o := range fullPlan(t, name, 1).ops() {
			count[o.Strategy]++
		}
		n := float64(len(a))
		if oua := float64(count["oua"]) / n; oua < 0.47 || oua > 0.53 {
			t.Errorf("%s: oua share %.3f, want half (2:1:1)", name, oua)
		}
		if count["mab"] == 0 || count["hybrid"] == 0 {
			t.Errorf("%s: strategies %v", name, count)
		}
	}
	// Paced and unpaced run the same query cycle.
	p, u := fullPlan(t, "fanout_paced", 1), fullPlan(t, "fanout_unpaced", 1)
	if p.Units[0][0].MaxTokens != u.Units[0][0].MaxTokens {
		t.Error("paced and unpaced budgets differ")
	}
}

// Every near-duplicate in repeat_mix is what its class says: the
// normalisation variants are equal under qcache.Normalize and not byte
// equal; the paraphrases are not equal under Normalize and sit above the
// cache's semantic threshold under its encoder.
func TestRepeatMixNearDuplicatesAreVerified(t *testing.T) {
	ds := truthfulqa.Generate(datasetSize, datasetSeed)
	enc := embedding.Default()
	p := fullPlan(t, "repeat_mix", 1)
	seen := map[string]int{}
	for u, unit := range p.Units {
		if len(unit) != 1 {
			t.Fatalf("unit %d has %d operations, want 1", u, len(unit))
		}
		o := unit[0]
		seen[o.Class]++
		base := ds[o.Item].Question
		switch o.Class {
		case classDupNorm:
			if o.Query == base || qcache.Normalize(o.Query) != qcache.Normalize(base) {
				t.Fatalf("norm variant %q of %q", o.Query, base)
			}
		case classDupSem:
			if qcache.Normalize(o.Query) == qcache.Normalize(base) {
				t.Fatalf("paraphrase %q normalises equal to %q", o.Query, base)
			}
			sim := embedding.Cosine(enc.Encode(qcache.Normalize(o.Query)), enc.Encode(qcache.Normalize(base)))
			if sim < qcache.DefaultSemanticThreshold {
				t.Fatalf("paraphrase %q of %q has similarity %.4f, below the threshold", o.Query, base, sim)
			}
		case classPair:
			// The halves of a pair are adjacent units asking one question.
			switch o.Barrier {
			case 1:
				if next := p.Units[u+1][0]; next.Barrier != 2 || next.Query != o.Query {
					t.Fatalf("unit %d opens a pair its successor does not close: %+v then %+v", u, o, next)
				}
			case 2:
				if prev := p.Units[u-1][0]; prev.Barrier != 1 {
					t.Fatalf("unit %d closes a pair its predecessor did not open", u)
				}
			default:
				t.Fatalf("pair op without a barrier: %+v", o)
			}
		case classHot, classScan:
			if o.Query != base || o.Barrier != 0 {
				t.Fatalf("%s op %+v, item is %q", o.Class, o, base)
			}
		default:
			t.Fatalf("unexpected class %q", o.Class)
		}
	}
	n := float64(len(p.ops()))
	for class, want := range map[string]float64{
		classHot: shareHot, classDupNorm: shareDup / 2, classDupSem: shareDup / 2,
		classPair: sharePair, classScan: 1 - shareHot - shareDup - sharePair,
	} {
		if got := float64(seen[class]) / n; got < want-0.002 || got > want+0.002 {
			t.Errorf("class %s is %.4f of operations, want %.3f", class, got, want)
		}
	}
	// The scan's reuse distance exceeds the cache: between two asks of one
	// cold question lie more distinct cold questions than the cache holds.
	// (A pair is one ask.)
	last := map[int]int{}
	asks := 0
	for _, o := range p.ops() {
		if o.Class == classScan || (o.Class == classPair && o.Barrier == 1) {
			if at, ok := last[o.Item]; ok && asks-at < qcache.DefaultCapacity {
				t.Fatalf("cold item %d re-asked after only %d other cold asks", o.Item, asks-at)
			}
			last[o.Item] = asks
			asks++
		}
	}
}

// agent_sessions: a unit is a whole session of one family or a single
// write; every 25th operation is a write; uploads and deletes alternate;
// a delete removes a document that is held at that point; and the set of
// sessions is the same for every seed.
func TestAgentSessionsShape(t *testing.T) {
	ds := truthfulqa.Generate(datasetSize, datasetSeed)
	p := fullPlan(t, "agent_sessions", 1)
	if p.Preload == 0 {
		t.Fatal("no corpus")
	}
	held := map[int]bool{}
	for d := 0; d < p.Preload; d++ {
		held[d] = true
	}
	writes := 0
	for i, o := range p.ops() {
		if (i%writeEvery == writeEvery-1) != (o.Kind != kindQuery) {
			t.Fatalf("op %d: kind %s", i, o.Kind)
		}
	}
	sessionKey := func(unit []op) string {
		key := ""
		for _, o := range unit {
			key += fmt.Sprint(o.Item, ",")
		}
		return key
	}
	var sessions []string
	for u, unit := range p.Units {
		switch unit[0].Kind {
		case kindUpload:
			writes++
			if o := unit[0]; len(unit) != 1 || writes%2 != 1 || o.Doc < p.Preload || held[o.Doc] {
				t.Fatalf("unit %d: bad upload %+v", u, unit)
			}
			held[unit[0].Doc] = true
		case kindDelete:
			writes++
			if o := unit[0]; len(unit) != 1 || writes%2 != 0 || !held[o.Doc] {
				t.Fatalf("unit %d: delete of a document that is not held: %+v", u, unit)
			}
			delete(held, unit[0].Doc)
		default:
			if len(unit) != sessionTurns {
				t.Fatalf("unit %d: session of %d turns", u, len(unit))
			}
			for k, o := range unit {
				if !o.UseRAG || o.Strategy != "mab" || o.Turn != k+1 || o.Kind != kindQuery {
					t.Fatalf("unit %d turn %d: %+v", u, k+1, o)
				}
				if ds[o.Item].Category != ds[unit[0].Item].Category {
					t.Fatalf("unit %d mixes families %s and %s", u, ds[unit[0].Item].Category, ds[o.Item].Category)
				}
			}
			sessions = append(sessions, sessionKey(unit))
		}
	}
	if n := len(held); n != p.Preload && n != p.Preload+1 {
		t.Errorf("%d documents held at the end, %d at the start", n, p.Preload)
	}
	var other []string
	for _, unit := range fullPlan(t, "agent_sessions", 42).Units {
		if unit[0].Kind == kindQuery {
			other = append(other, sessionKey(unit))
		}
	}
	sort.Strings(sessions)
	sort.Strings(other)
	if fmt.Sprint(sessions) != fmt.Sprint(other) {
		t.Error("seeds 1 and 42 run different sets of sessions")
	}
}
