package session

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"llmms/internal/embedding"
)

func ex(session, q, a string, minute int) Exchange {
	return Exchange{
		SessionID: session, Question: q, Answer: a,
		Time: time.Date(2025, 5, 1, 10, minute, 0, 0, time.UTC),
	}
}

func TestMemoryGraphRecallDirect(t *testing.T) {
	g := NewMemoryGraph()
	g.Add(ex("s1", "What GPU does the server use?", "A Tesla V100 with 32 GB.", 0))
	g.Add(ex("s1", "How many CPU cores does it have?", "Forty virtual cores.", 1))
	g.Add(ex("s2", "What is the best pizza topping?", "That is subjective.", 2))

	hits := g.Recall("Tell me about the GPU in the server", 2)
	if len(hits) == 0 {
		t.Fatal("no recall hits")
	}
	if hits[0].Exchange.Answer != "A Tesla V100 with 32 GB." {
		t.Fatalf("top hit = %+v", hits[0])
	}
	for _, h := range hits {
		if h.Exchange.Question == "What is the best pizza topping?" && h.Score > hits[0].Score {
			t.Fatalf("irrelevant exchange outranked relevant one: %+v", hits)
		}
	}
}

func TestMemoryGraphOneHopExpansion(t *testing.T) {
	g := NewMemoryGraph()
	g.edgeThreshold = 0.3
	// Two linked exchanges about the same machine; the second never says
	// "GPU" but shares enough vocabulary to be linked to the first.
	g.Add(ex("s1", "What GPU accelerator does the inference server have installed?", "A Tesla V100.", 0))
	g.Add(ex("s1", "Does the inference server have fast storage installed?", "Yes, an NVMe drive.", 1))
	g.Add(ex("s2", "What is the capital of France?", "Paris.", 2))

	hits := g.Recall("Which GPU accelerator is in the inference server?", 1)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	// With k=1 only the GPU exchange is a seed; its neighbor may arrive
	// via the edge. Ask for 2 and require the storage exchange present.
	hits = g.Recall("Which GPU accelerator is installed?", 2)
	foundStorage := false
	for _, h := range hits {
		if h.Exchange.Answer == "Yes, an NVMe drive." {
			foundStorage = true
		}
		if h.Exchange.Answer == "Paris." {
			t.Fatalf("unrelated exchange recalled: %+v", hits)
		}
	}
	if !foundStorage {
		t.Fatalf("one-hop neighbor not recalled: %+v", hits)
	}
}

func TestMemoryGraphEviction(t *testing.T) {
	g := newMemoryGraph(3, embedding.Default())
	for i := 0; i < 5; i++ {
		g.Add(ex("s", fmt.Sprintf("unique question number %d about topic %d?", i, i), "answer", i))
	}
	if g.Len() != 3 {
		t.Fatalf("len = %d, want 3", g.Len())
	}
	// The oldest exchanges are gone.
	hits := g.Recall("unique question number 0 about topic 0?", 5)
	for _, h := range hits {
		if h.Exchange.Time.Minute() < 2 {
			t.Fatalf("evicted exchange recalled: %+v", h)
		}
	}
}

// eagerGraph is the reference MemoryGraph.Recall is checked against: it
// maintains every edge explicitly as exchanges are added and evicted —
// the representation Recall's lazily derived edges must be equivalent to.
type eagerGraph struct {
	enc           embedding.Encoder
	maxNodes      int
	edgeThreshold float64
	nodes         []*eagerNode
}

type eagerNode struct {
	ex    Exchange
	vec   embedding.Vector
	edges map[*eagerNode]float64
}

func (g *eagerGraph) add(ex Exchange) {
	n := &eagerNode{ex: ex, vec: g.enc.Encode(ex.Question), edges: map[*eagerNode]float64{}}
	for _, other := range g.nodes {
		if sim := embedding.Cosine(n.vec, other.vec); sim >= g.edgeThreshold {
			n.edges[other] = sim
			other.edges[n] = sim
		}
	}
	g.nodes = append(g.nodes, n)
	if len(g.nodes) > g.maxNodes {
		evicted := g.nodes[0]
		g.nodes = g.nodes[1:]
		for other := range evicted.edges {
			delete(other.edges, evicted)
		}
	}
}

func (g *eagerGraph) recall(query string, k int) []Recalled {
	qv := g.enc.Encode(query)
	direct := make(map[*eagerNode]float64, len(g.nodes))
	for _, n := range g.nodes {
		direct[n] = embedding.Cosine(qv, n.vec)
	}
	seeds := append([]*eagerNode(nil), g.nodes...)
	sort.SliceStable(seeds, func(i, j int) bool { return direct[seeds[i]] > direct[seeds[j]] })
	if len(seeds) > k {
		seeds = seeds[:k]
	}
	best := make(map[*eagerNode]Recalled)
	for _, s := range seeds {
		if cur, ok := best[s]; !ok || direct[s] > cur.Score {
			best[s] = Recalled{Exchange: s.ex, Score: direct[s]}
		}
		for nb, edgeSim := range s.edges {
			score := direct[s] * edgeSim * 0.8
			if cur, ok := best[nb]; !ok || score > cur.Score {
				if direct[nb] >= score {
					best[nb] = Recalled{Exchange: nb.ex, Score: direct[nb]}
				} else {
					best[nb] = Recalled{Exchange: nb.ex, Score: score, ViaNeighbor: true}
				}
			}
		}
	}
	out := make([]Recalled, 0, len(best))
	for _, r := range best {
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Exchange.Time.Before(out[j].Exchange.Time)
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// sameRecall reports whether got holds want's exchanges in want's order,
// each with the same ViaNeighbor and a score within 1e-6: the graph scores
// by the dot product of unit vectors, the reference by their cosine.
func sameRecall(got, want []Recalled) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Exchange != want[i].Exchange || got[i].ViaNeighbor != want[i].ViaNeighbor ||
			math.Abs(got[i].Score-want[i].Score) > 1e-6 {
			return false
		}
	}
	return true
}

// TestMemoryGraphMatchesEagerReference adds 600 exchanges, every tenth
// asking an earlier question again (a tie), to graphs that evict (at 64
// and at 200 nodes) and checks along the way that the size holds at the
// cap, that Recall returns what the eager-edge reference returns
// (sameRecall), and that an evicted exchange is never recalled — directly
// or through a neighbor that once linked to it.
func TestMemoryGraphMatchesEagerReference(t *testing.T) {
	topics := []string{"GPU memory", "disk latency", "network throughput", "scheduler fairness", "cache eviction"}
	queries := []string{
		"how is subsystem 4 performing?", "tell me about GPU memory on the server",
		"question 17 about subsystem 8 cache eviction performance?", "what about pizza?",
	}
	// A narrow encoder: the reference computes a cosine per stored node on
	// every add, which is most of this test's time under -race.
	enc, err := embedding.New(embedding.Config{Name: "memgraph-test", Dim: 48, Seed: 7, CharNGram: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, maxNodes := range []int{64, 200} {
		g := newMemoryGraph(maxNodes, enc)
		ref := &eagerGraph{enc: enc, maxNodes: maxNodes, edgeThreshold: g.edgeThreshold}
		for i := 0; i < 600; i++ {
			n := i
			if i%10 == 9 {
				n = i - 3
			}
			e := ex("s"+strconv.Itoa(i%7),
				fmt.Sprintf("question %d about subsystem %d %s performance?", n, n%9, topics[n%len(topics)]),
				strconv.Itoa(i), i) // the answer records the insertion index; times are distinct
			g.Add(e)
			ref.add(e)
			if want := min(i+1, maxNodes); g.Len() != want {
				t.Fatalf("max %d: len after %d adds = %d, want %d", maxNodes, i+1, g.Len(), want)
			}
			if i%97 != 0 && i%100 != 9 && i != 599 {
				continue
			}
			for _, q := range append(queries, e.Question, fmt.Sprintf("question %d about subsystem %d %s performance?", i/2, (i/2)%9, topics[(i/2)%len(topics)])) {
				for _, k := range []int{1, 2, 5} {
					got, want := g.Recall(q, k), ref.recall(q, k)
					if !sameRecall(got, want) {
						t.Fatalf("max %d, after %d adds, Recall(%q, %d):\n got %+v\nwant %+v", maxNodes, i+1, q, k, got, want)
					}
					for _, h := range got {
						if idx, _ := strconv.Atoi(h.Exchange.Answer); idx <= i-maxNodes {
							t.Fatalf("max %d, after %d adds: evicted exchange %d recalled: %+v", maxNodes, i+1, idx, h)
						}
					}
				}
			}
		}
	}
}

func TestMemoryGraphEmptyAndValidation(t *testing.T) {
	g := NewMemoryGraph()
	if hits := g.Recall("anything", 3); hits != nil {
		t.Fatalf("empty graph recalled %v", hits)
	}
	g.Add(Exchange{Question: "", Answer: "ignored"})
	if g.Len() != 0 {
		t.Fatal("empty question stored")
	}
	g.Add(ex("s", "a real question?", "a", 0))
	if hits := g.Recall("a real question?", 0); hits != nil {
		t.Fatalf("k=0 returned %v", hits)
	}
}

func TestMemoryGraphConcurrent(t *testing.T) {
	g := newMemoryGraph(64, embedding.Default())
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.Add(ex("s", fmt.Sprintf("concurrent question %d about servers?", i), "a", i))
			g.Recall("question about servers", 3)
		}(i)
	}
	wg.Wait()
	if g.Len() != 20 {
		t.Fatalf("len = %d", g.Len())
	}
}

func BenchmarkMemoryGraphRecall(b *testing.B) {
	g := NewMemoryGraph()
	for i := 0; i < 200; i++ {
		g.Add(ex("s", fmt.Sprintf("question %d about subsystem %d performance?", i, i%9), "answer", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Recall("how is subsystem 4 performing?", 5)
	}
}

// TestMemoryGraphAddAtCapacityAllocatesNothing: once the ring is full and
// the encoder's pool is warm, an Add borrows the question's vector, copies
// it over the oldest row and allocates nothing.
func TestMemoryGraphAddAtCapacityAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	g := newMemoryGraph(8, embedding.Default())
	exs := make([]Exchange, 16)
	for i := range exs {
		exs[i] = ex("s", fmt.Sprintf("question %d about the cluster's disk latency?", i), "answer", i)
		g.Add(exs[i])
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		g.Add(exs[i%len(exs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Add into a full ring allocates %.1f times per call, want 0", allocs)
	}
	if g.Len() != 8 {
		t.Fatalf("len = %d, want 8", g.Len())
	}
}
