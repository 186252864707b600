package embedding

import (
	"math"
	"slices"
	"testing"
)

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
// through Row, Set, Reset, a TopK, or a run of the Selector alone — whose
// operands come from the bytes after it. Vector entries and scores come
// from a four-value alphabet, so duplicate rows and tied scores are common
// and the id tie-break is exercised. After every operation the rows must
// hold exactly the model's vectors, each under its id; every SwapRemove
// must report the id that was in the last row; and TopK and the Selector
// must agree with sortEverything bit for bit for k ∈ {0, 1, 3, > len}.
func FuzzRows(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 5, 6, 7, 0, 1, 2, 3, 5, 9, 0, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 1, 1, 1, 2, 1, 5, 3, 3, 3, 6, 2})
	f.Add([]byte{0, 9, 9, 9, 0, 9, 9, 9, 0, 8, 8, 8, 1, 2, 1, 0, 4, 0, 3, 5, 5, 5, 6, 7, 7, 7, 7})
	const dim = 3
	alphabet := [4]float32{-1, 0, 0.5, 1}
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
				if next()%4 == 0 {
					r.Reset()
					clear(model)
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
