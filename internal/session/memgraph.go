package session

import (
	"sort"
	"sync"
	"time"

	"llmms/internal/embedding"
)

// Exchange is one past question/answer pair stored in the memory graph.
type Exchange struct {
	// SessionID is the conversation the exchange came from.
	SessionID string `json:"session_id"`
	// Question and Answer are the exchange's content.
	Question string `json:"question"`
	Answer   string `json:"answer"`
	// Model is which model produced the answer.
	Model string `json:"model,omitempty"`
	// Time is when the exchange happened.
	Time time.Time `json:"time"`
}

// MemoryGraphOptions tunes a MemoryGraph.
type MemoryGraphOptions struct {
	// EdgeThreshold links two exchanges whose question embeddings have at
	// least this cosine similarity. Default 0.35.
	EdgeThreshold float64
	// MaxNodes bounds the graph; the oldest node is evicted at the cap.
	// Default 512.
	MaxNodes int
	// Encoder embeds questions; nil means embedding.Default().
	Encoder embedding.Encoder
}

func (o MemoryGraphOptions) withDefaults() MemoryGraphOptions {
	if o.EdgeThreshold <= 0 {
		o.EdgeThreshold = 0.35
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 512
	}
	if o.Encoder == nil {
		o.Encoder = embedding.Default()
	}
	return o
}

type memNode struct {
	ex  Exchange
	vec embedding.Vector
}

// MemoryGraph implements the paper's §9.5 "Contextual Memory Graphs"
// proposal: rather than storing chat logs purely in order, past
// exchanges become nodes in a similarity graph, and recall pulls in
// relevant past conversations — directly similar ones plus their graph
// neighbors — so models can give more personalized, consistent replies
// across sessions. Safe for concurrent use.
type MemoryGraph struct {
	opts MemoryGraphOptions

	mu    sync.Mutex
	nodes []*memNode
}

// NewMemoryGraph returns an empty graph.
func NewMemoryGraph(opts MemoryGraphOptions) *MemoryGraph {
	return &MemoryGraph{opts: opts.withDefaults()}
}

// Add inserts an exchange, evicting the oldest at the cap. It only
// embeds and stores: the graph's edges — every pair of stored exchanges
// whose questions are similar beyond the edge threshold — are a function
// of the stored vectors, so Recall derives the few it follows instead of
// Add maintaining all of them on every query's path.
func (g *MemoryGraph) Add(ex Exchange) {
	if ex.Question == "" {
		return
	}
	n := &memNode{ex: ex, vec: g.opts.Encoder.Encode(ex.Question)}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.nodes) < g.opts.MaxNodes {
		g.nodes = append(g.nodes, n)
		return
	}
	// Shift in place: reslicing past the evicted node would keep it (and
	// everything evicted before it) reachable from the backing array.
	copy(g.nodes, g.nodes[1:])
	g.nodes[len(g.nodes)-1] = n
}

// Len returns the number of stored exchanges.
func (g *MemoryGraph) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.nodes)
}

// Recalled is one recall hit with its relevance score.
type Recalled struct {
	Exchange Exchange `json:"exchange"`
	// Score is the cosine relevance to the query; one-hop neighbors carry
	// their damped path score.
	Score float64 `json:"score"`
	// ViaNeighbor marks hits found through a graph edge rather than by
	// direct similarity.
	ViaNeighbor bool `json:"via_neighbor,omitempty"`
}

// Recall returns up to k past exchanges relevant to the query: the most
// similar exchanges directly, expanded one hop along graph edges with a
// damped score, deduplicated, best first. The one-hop expansion is what
// distinguishes the graph from a plain vector lookup — an exchange that
// never mentions the query's words is still recalled when it is linked
// to one that does.
func (g *MemoryGraph) Recall(query string, k int) []Recalled {
	if k <= 0 {
		return nil
	}
	qv, acc := embedding.Borrow(g.opts.Encoder, query)
	defer acc.Release()
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.nodes) == 0 {
		return nil
	}

	// Direct scores.
	direct := make(map[*memNode]float64, len(g.nodes))
	for _, n := range g.nodes {
		direct[n] = embedding.Cosine(qv, n.vec)
	}
	// Seeds: top-k by direct score.
	seeds := append([]*memNode(nil), g.nodes...)
	sort.SliceStable(seeds, func(i, j int) bool { return direct[seeds[i]] > direct[seeds[j]] })
	if len(seeds) > k {
		seeds = seeds[:k]
	}

	// Expand one hop: a neighbor inherits seedScore·edgeSim, damped.
	const hopDamping = 0.8
	best := make(map[*memNode]Recalled, len(seeds)*2)
	for _, s := range seeds {
		if cur, ok := best[s]; !ok || direct[s] > cur.Score {
			best[s] = Recalled{Exchange: s.ex, Score: direct[s]}
		}
		for _, nb := range g.nodes {
			if nb == s {
				continue
			}
			edgeSim := embedding.Cosine(s.vec, nb.vec)
			if edgeSim < g.opts.EdgeThreshold {
				continue // no edge between the two
			}
			score := direct[s] * edgeSim * hopDamping
			if cur, ok := best[nb]; !ok || score > cur.Score {
				// Direct relevance wins over a path when it is higher.
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
