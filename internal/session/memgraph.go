package session

import (
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

// The memory graph's constants.
const (
	// edgeThreshold links two exchanges whose question embeddings have at
	// least this cosine similarity.
	edgeThreshold = 0.35
	// maxNodes bounds the graph; the oldest node is evicted at the cap.
	maxNodes = 512
)

// MemoryGraph implements the paper's §9.5 "Contextual Memory Graphs"
// proposal: rather than storing chat logs purely in order, past
// exchanges become nodes in a similarity graph, and recall pulls in
// relevant past conversations — directly similar ones plus their graph
// neighbors — so models can give more personalized, consistent replies
// across sessions. Safe for concurrent use.
//
// The nodes are a ring, allocated whole: exchange number s (counting from
// 0 in insertion order) lives in slot s mod maxNodes, its question's unit
// vector in row s mod maxNodes of one contiguous array under id s, so an
// Add at the cap overwrites the oldest exchange in place.
type MemoryGraph struct {
	enc           embedding.Encoder
	maxNodes      int
	edgeThreshold float64 // in-package tests lower it

	mu   sync.Mutex
	rows *embedding.Rows[int]
	exs  []Exchange // exs[i] is row i's exchange
	next int        // the sequence number of the next exchange
}

// NewMemoryGraph returns an empty graph over the default encoder.
func NewMemoryGraph() *MemoryGraph { return newMemoryGraph(maxNodes, embedding.Default()) }

func newMemoryGraph(maxNodes int, enc embedding.Encoder) *MemoryGraph {
	return &MemoryGraph{
		enc:           enc,
		maxNodes:      maxNodes,
		edgeThreshold: edgeThreshold,
		rows:          embedding.NewRows[int](enc.Dim(), maxNodes),
		exs:           make([]Exchange, 0, maxNodes),
	}
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
	v, acc := embedding.Borrow(g.enc, ex.Question)
	defer acc.Release()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rows.Len() < g.maxNodes {
		g.rows.Append(g.next, v)
		g.exs = append(g.exs, ex)
	} else {
		slot := g.next % g.maxNodes
		g.rows.Set(slot, g.next, v)
		g.exs[slot] = ex
	}
	g.next++
}

// Len returns the number of stored exchanges.
func (g *MemoryGraph) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rows.Len()
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
// damped score, deduplicated, best first (ties to the older exchange).
// The one-hop expansion is what distinguishes the graph from a plain
// vector lookup — an exchange that never mentions the query's words is
// still recalled when it is linked to one that does.
func (g *MemoryGraph) Recall(query string, k int) []Recalled {
	if k <= 0 {
		return nil
	}
	qv, acc := embedding.Borrow(g.enc, query)
	defer acc.Release()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rows.Len() == 0 {
		return nil
	}
	k = min(k, g.rows.Len()) // nothing below is sized by more

	// Expand one hop from each of the top-k seeds: a neighbor inherits
	// seedScore·edgeSim, damped, unless its own relevance is higher. Both
	// scores run over the nonzero coordinates of the query and the seed.
	const hopDamping = 0.8
	best := make(map[int]Recalled, 2*k) // by row
	seeds := g.rows.TopK(qv, k, make([]embedding.Hit[int], 0, k))
	nz := make([]int32, 2*len(qv)) // the query's nonzero list, then a seed's
	qnz := embedding.Nonzero(qv, nz[:0:len(qv)])
	snz := nz[len(qv):len(qv)]
	for _, s := range seeds {
		row := s.ID % g.maxNodes
		if cur, ok := best[row]; !ok || s.Score > cur.Score {
			best[row] = Recalled{Exchange: g.exs[row], Score: s.Score}
		}
		sv := g.rows.Row(row)
		snz = embedding.Nonzero(sv, snz)
		for nb := 0; nb < g.rows.Len(); nb++ {
			if nb == row {
				continue
			}
			edgeSim := embedding.DotNonzero(sv, g.rows.Row(nb), snz)
			if edgeSim < g.edgeThreshold {
				continue // no edge between the two
			}
			score := s.Score * edgeSim * hopDamping
			if cur, ok := best[nb]; !ok || score > cur.Score {
				if direct := embedding.DotNonzero(qv, g.rows.Row(nb), qnz); direct >= score {
					best[nb] = Recalled{Exchange: g.exs[nb], Score: direct}
				} else {
					best[nb] = Recalled{Exchange: g.exs[nb], Score: score, ViaNeighbor: true}
				}
			}
		}
	}
	sel := embedding.NewSelector(k, seeds) // the seeds are spent
	for row, r := range best {
		sel.Offer(g.rows.ID(row), r.Score)
	}
	hits := sel.Sorted()
	out := make([]Recalled, len(hits))
	for i, h := range hits {
		out[i] = best[h.ID%g.maxNodes]
	}
	return out
}
