package vectordb

import "llmms/internal/embedding"

// flatIndex is the exact scan Query was before a shard's vectors moved
// into embedding.Rows: ids and vectors in parallel slices, every allowed
// vector offered to a Selector at minus its unitCosineDistance to the
// query, so the kept candidates are the k nearest by (distance, id). It is
// the reference ReferenceQuery answers with.
type flatIndex struct {
	ids  []string
	vecs []embedding.Vector
	pos  map[string]int
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

func (f *flatIndex) search(q embedding.Vector, k int, allow func(string) bool) []candidate {
	sel := embedding.NewSelector(k, make([]embedding.Hit[string], 0, k))
	for i, id := range f.ids {
		if allow != nil && !allow(id) {
			continue
		}
		sel.Offer(id, -unitCosineDistance(q, f.vecs[i]))
	}
	hits := sel.Sorted()
	out := make([]candidate, len(hits))
	for i, h := range hits {
		out[i] = candidate{id: h.ID, dist: -h.Score}
	}
	return out
}

type candidate struct {
	id   string
	dist float64
}

// unitCosineDistance is cosine distance for vectors that are each unit or
// zero: one dot product, no norm recomputation.
func unitCosineDistance(a, b embedding.Vector) float64 {
	return 1 - embedding.CosineUnit(a, b)
}

// Reference answers queries over a fixed set of documents with flatIndex.
// It is what Collection.Query is held to, bit for bit (retrieval_test.go).
type Reference struct {
	enc  embedding.Encoder
	flat *flatIndex
	docs map[string]Document
}

// NewReference indexes docs: each document's vector is its embedding, or
// enc's encoding of its text when it has none, and must be unit or zero.
// A later document replaces an earlier one with the same id.
func NewReference(enc embedding.Encoder, docs []Document) *Reference {
	r := &Reference{enc: enc, flat: &flatIndex{pos: make(map[string]int)}, docs: make(map[string]Document, len(docs))}
	for _, d := range docs {
		v := d.Embedding
		if len(v) == 0 {
			v = enc.Encode(d.Text)
		}
		r.flat.add(d.ID, v)
		r.docs[d.ID] = d
	}
	return r
}

// Query answers req: the query vector is the encoding of req.Text, or a
// unit copy of req.Embedding; Where compares its fields with ==.
func (r *Reference) Query(req QueryRequest) []Result {
	q := req.Embedding
	if len(q) == 0 {
		q = r.enc.Encode(req.Text)
	} else {
		q = embedding.Clone(q)
		embedding.NormalizeInPlace(q)
	}
	k := req.TopK
	if k <= 0 {
		k = 10
	}
	var allow func(string) bool
	if req.Where != nil {
		allow = func(id string) bool {
			for field, want := range req.Where {
				if r.docs[id].Metadata[field] != want {
					return false
				}
			}
			return true
		}
	}
	cands := r.flat.search(q, min(k, len(r.docs)), allow)
	out := make([]Result, len(cands))
	for i, c := range cands {
		d := r.docs[c.id]
		out[i] = Result{ID: d.ID, Text: d.Text, Metadata: d.Metadata, Distance: c.dist, Similarity: 1 - c.dist}
	}
	return out
}
