package vectordb

import "llmms/internal/embedding"

// flatIndex is the exact brute-force index: search scans every live
// vector. It is the reference implementation HNSW recall is measured
// against, and the default for the small collections LLM-MS sessions
// produce (per-session document chunks).
//
// Entries live in parallel slices (with swap-delete removal and an
// id→position map) rather than a map, so the scan iterates contiguous
// memory; selection goes through embedding's bounded Selector, so a query
// does O(n log k) work and O(k) allocation instead of materializing and
// sorting every candidate. Iteration order does not affect results
// because ties are broken on id. The scan itself is not embedding.Rows':
// it serves three metrics, a filter and explicit vectors of any length.
type flatIndex struct {
	dist distFunc
	ids  []string
	vecs []embedding.Vector
	pos  map[string]int
}

func newFlat(metric Distance) *flatIndex {
	return &flatIndex{dist: metric.distance, pos: make(map[string]int)}
}

func (f *flatIndex) add(id string, v embedding.Vector) {
	if i, ok := f.pos[id]; ok {
		f.vecs[i] = v
		return
	}
	f.pos[id] = len(f.ids)
	f.ids = append(f.ids, id)
	f.vecs = append(f.vecs, v)
}

func (f *flatIndex) remove(id string) {
	i, ok := f.pos[id]
	if !ok {
		return
	}
	last := len(f.ids) - 1
	f.ids[i], f.vecs[i] = f.ids[last], f.vecs[last]
	f.pos[f.ids[i]] = i
	f.ids = f.ids[:last]
	f.vecs = f.vecs[:last]
	delete(f.pos, id)
}

func (f *flatIndex) len() int           { return len(f.ids) }
func (f *flatIndex) setDist(d distFunc) { f.dist = d }

// search offers every allowed vector to a selector with score −distance
// (negating is exact), so the kept candidates are the k nearest by
// (distance, id).
func (f *flatIndex) search(q embedding.Vector, k int, allow func(string) bool) []candidate {
	sel := embedding.NewSelector(k, make([]embedding.Hit[string], 0, k))
	for i, id := range f.ids {
		if allow != nil && !allow(id) {
			continue
		}
		sel.Offer(id, -f.dist(q, f.vecs[i]))
	}
	hits := sel.Sorted()
	out := make([]candidate, len(hits))
	for i, h := range hits {
		out[i] = candidate{id: h.ID, dist: -h.Score}
	}
	return out
}
