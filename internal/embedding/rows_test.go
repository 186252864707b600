package embedding

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"

	"llmms/internal/truthfulqa"
)

// denseTopK is the plain scan TopK is held to: every row scored by Dot
// over all of its coordinates, zeros of q included.
func denseTopK[ID cmp.Ordered](r *Rows[ID], q Vector, k int) []Hit[ID] {
	s := NewSelector[ID](k, nil)
	for i := 0; i < r.Len(); i++ {
		s.Offer(r.ID(i), Dot(q, r.Row(i)))
	}
	return s.Sorted()
}

// questionVectors embeds the 817 benchmark questions as the answer cache
// sees them: lower-cased with whitespace runs collapsed, as
// qcache.Normalize writes them (qcache imports this package).
func questionVectors(enc Encoder) []Vector {
	qs := truthfulqa.Generate(817, 1)
	vs := make([]Vector, len(qs))
	for i, it := range qs {
		vs[i] = enc.Encode(strings.Join(strings.Fields(strings.ToLower(it.Question)), " "))
	}
	return vs
}

// centroids folds vs into n unit centroids, vector i into centroid i mod
// n, summed in float64 and rounded once as the routing index does: rows
// far denser than any one question.
func centroids(vs []Vector, n int) []Vector {
	dim := len(vs[0])
	sums := make([][]float64, n)
	for i := range sums {
		sums[i] = make([]float64, dim)
	}
	for i, v := range vs {
		for j, x := range v {
			sums[i%n][j] += float64(x)
		}
	}
	out := make([]Vector, n)
	for i, sum := range sums {
		var norm float64
		for _, x := range sum {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		out[i] = make(Vector, dim)
		for j, x := range sum {
			out[i][j] = float32(x / norm)
		}
	}
	return out
}

// scanShape is a row set TopK serves and the k it is probed at.
type scanShape struct {
	name string
	rows *Rows[int]
	k    int
}

// scanShapes are the row sets TopK serves, over one encoder's question
// vectors: the semantic tier's bucket of stored questions (k 3) and the
// routing index's centroids (k 1).
func scanShapes(vs []Vector) []scanShape {
	dim := len(vs[0])
	semantic, routing := NewRows[int](dim, 256), NewRows[int](dim, 40)
	for i, v := range vs[:256] {
		semantic.Append(i, v)
	}
	for i, v := range centroids(vs, 40) {
		routing.Append(i, v)
	}
	return []scanShape{{"semantic", semantic, 3}, {"routing", routing, 1}}
}

// TestTopKMatchesDenseScan holds TopK to denseTopK over the benchmark's
// questions at the default encoder's dim and mxbai's: every third question
// probes the semantic tier's shape and the router's, at their k and at a
// k past the row count, and every id and score must match bit for bit.
func TestTopKMatchesDenseScan(t *testing.T) {
	mxbai, err := Lookup(ModelMxbai)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []Encoder{Default(), mxbai} {
		vs := questionVectors(enc)
		nonzero := 0
		for _, q := range vs {
			nonzero += len(Nonzero(q, nil))
		}
		if 2*nonzero > len(vs)*enc.Dim() {
			t.Fatalf("dim %d: the questions average %d nonzeros; a sparse probe skips little", enc.Dim(), nonzero/len(vs))
		}
		for _, sh := range scanShapes(vs) {
			for _, k := range []int{sh.k, sh.rows.Len() + 2} {
				for i := 0; i < len(vs); i += 3 {
					q := vs[i]
					got, want := sh.rows.TopK(q, k, nil), denseTopK(sh.rows, q, k)
					if !sameHits(got, want) {
						t.Fatalf("dim %d %s k %d: question %d: TopK = %v, the dense scan %v", enc.Dim(), sh.name, k, i, got, want)
					}
				}
			}
		}
	}
}

// TestTopKAllocatesNothing: the nonzero list lives on TopK's stack for
// every registered encoder's dim, and dst has room for k.
func TestTopKAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	mxbai, err := Lookup(ModelMxbai)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []Encoder{Default(), mxbai} {
		vs := questionVectors(enc)
		for _, sh := range scanShapes(vs) {
			var near [3]Hit[int]
			q := vs[300]
			if allocs := testing.AllocsPerRun(100, func() { sh.rows.TopK(q, sh.k, near[:0]) }); allocs != 0 {
				t.Fatalf("dim %d %s: TopK allocates %.1f times per call, want 0", enc.Dim(), sh.name, allocs)
			}
		}
	}
}

// sortEverything is the reference selection: score every candidate, sort
// all of them by score descending and then id ascending, keep the first k.
func sortEverything(hits []Hit[int], k int) []Hit[int] {
	all := slices.Clone(hits)
	slices.SortFunc(all, func(a, b Hit[int]) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return a.ID - b.ID
	})
	return all[:min(max(k, 0), len(all))]
}

// sameHits reports whether a and b hold the same ids with the same score
// bits, in the same order.
func sameHits(a, b []Hit[int]) bool {
	return slices.EqualFunc(a, b, func(x, y Hit[int]) bool {
		return x.ID == y.ID && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// FuzzRows holds the kernel to a map model and a sort-everything
// reference. Each input byte is an operation — Append, SwapRemove, a write
// through Row, Set, Reset or Trim, a TopK and a filtered, shifted
// TopKWhere, or a run of the Selector alone — whose
// operands come from the bytes after it. Vector entries and scores come
// from a five-value alphabet, so duplicate rows and tied scores are common
// and the id tie-break is exercised. After every operation the rows must
// hold exactly the model's vectors, each under its id; every SwapRemove
// must report the id that was in the last row; Trim must leave the rows
// filling at least half their room; and TopK, TopKWhere and the Selector
// must agree with sortEverything bit for bit for k ∈ {0, 1, 3, > len}.
// The alphabet holds −0 beside 0: TopK skips both in a query, and its
// scores must still be Dot's, sign of zero included.
func FuzzRows(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 5, 6, 7, 0, 1, 2, 3, 5, 9, 0, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 1, 1, 1, 2, 1, 5, 3, 3, 3, 6, 2})
	f.Add([]byte{0, 9, 9, 9, 0, 9, 9, 9, 0, 8, 8, 8, 1, 2, 1, 0, 4, 0, 3, 5, 5, 5, 6, 7, 7, 7, 7})
	f.Add([]byte{0, 1, 1, 1, 0, 2, 2, 2, 0, 3, 3, 3, 0, 4, 4, 4, 1, 0, 1, 0, 1, 0, 4, 1, 5, 4, 4, 4})
	const dim = 3
	alphabet := [5]float32{-1, float32(math.Copysign(0, -1)), 0, 0.5, 1}
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		vec := func() Vector {
			v := make(Vector, dim)
			for i := range v {
				v[i] = alphabet[next()%len(alphabet)]
			}
			return v
		}
		r := NewRows[int](dim, len(ops)%4)
		model := map[int]Vector{}
		fresh := 0 // ids are never reused, so the model can key on them
		for len(ops) > 0 {
			switch op := next() % 7; {
			case op == 0:
				v := vec()
				model[fresh] = Clone(v)
				r.Append(fresh, v)
				v[0] = 9 // Append stored a copy: this write must not reach the row
				if r.ID(r.Len()-1) != fresh {
					t.Fatalf("appended row holds id %d, want %d", r.ID(r.Len()-1), fresh)
				}
				fresh++
			case op == 1 && r.Len() > 0:
				i, last := next()%r.Len(), r.Len()-1
				gone, lastID := r.ID(i), r.ID(last)
				moved, ok := r.SwapRemove(i)
				delete(model, gone)
				if ok != (i != last) || (ok && (moved != lastID || r.ID(i) != lastID)) {
					t.Fatalf("SwapRemove(%d) of %d rows = (%d, %v); the last row held %d", i, last+1, moved, ok, lastID)
				}
			case op == 2 && r.Len() > 0:
				i := next() % r.Len()
				v := vec()
				copy(r.Row(i), v)
				model[r.ID(i)] = v
			case op == 3 && r.Len() > 0:
				i := next() % r.Len()
				v := vec()
				delete(model, r.ID(i))
				r.Set(i, fresh, v)
				model[fresh] = v
				fresh++
			case op == 4:
				switch next() % 4 {
				case 0:
					r.Reset()
					clear(model)
				case 1:
					r.Trim()
					if 2*len(r.vecs) < cap(r.vecs) {
						t.Fatalf("Trim left %d rows in room for %d", r.Len(), cap(r.vecs)/dim)
					}
				}
			case op == 5:
				q := vec()
				var all []Hit[int]
				for id, v := range model {
					all = append(all, Hit[int]{ID: id, Score: Dot(q, v)})
				}
				for _, k := range []int{0, 1, 3, r.Len() + 2} {
					dst := make([]Hit[int], 0, k)
					got := r.TopK(q, k, dst)
					if want := sortEverything(all, k); !sameHits(got, want) {
						t.Fatalf("TopK(%v, %d) = %v, want %v", q, k, got, want)
					}
					if len(got) > 0 && &got[0] != &dst[:1][0] {
						t.Fatalf("TopK(%v, %d) left dst's array", q, k)
					}
				}
				// TopKWhere over the rows of even ids, scored as distances.
				var even []Hit[int]
				for _, h := range all {
					if h.ID%2 == 0 {
						even = append(even, Hit[int]{ID: h.ID, Score: h.Score - 1})
					}
				}
				keep := func(i int) bool { return r.ID(i)%2 == 0 }
				for _, k := range []int{0, 1, 3, r.Len() + 2} {
					if got, want := r.TopKWhere(q, k, -1, keep, nil), sortEverything(even, k); !sameHits(got, want) {
						t.Fatalf("TopKWhere(%v, %d, -1, even) = %v, want %v", q, k, got, want)
					}
				}
			case op == 6:
				n := next() % 16
				offered := make([]Hit[int], n)
				for i := range offered {
					offered[i] = Hit[int]{ID: next()%8*16 + i, Score: float64(alphabet[next()%len(alphabet)])}
				}
				for _, k := range []int{0, 1, 3, n + 1} {
					s := NewSelector[int](k, nil)
					for _, h := range offered {
						s.Offer(h.ID, h.Score)
					}
					if got, want := s.Sorted(), sortEverything(offered, k); !sameHits(got, want) {
						t.Fatalf("Selector k %d over %v = %v, want %v", k, offered, got, want)
					}
				}
			}
			if r.Len() != len(model) {
				t.Fatalf("%d rows, the model %d", r.Len(), len(model))
			}
			for i := 0; i < r.Len(); i++ {
				if want, ok := model[r.ID(i)]; !ok || !bitEqual(r.Row(i), want) {
					t.Fatalf("row %d under id %d holds %v, the model %v", i, r.ID(i), r.Row(i), want)
				}
			}
		}
	})
}

// BenchmarkTopK times one question's scan of the semantic tier's shape
// and the router's at the default encoder's dim, by TopK and by the dense
// reference.
func BenchmarkTopK(b *testing.B) {
	vs := questionVectors(Default())
	q := vs[300]
	for _, sh := range scanShapes(vs) {
		var near [3]Hit[int]
		b.Run(sh.name, func(b *testing.B) {
			for range b.N {
				sh.rows.TopK(q, sh.k, near[:0])
			}
		})
		b.Run(sh.name+"/dense", func(b *testing.B) {
			for range b.N {
				denseTopK(sh.rows, q, sh.k)
			}
		})
	}
}
