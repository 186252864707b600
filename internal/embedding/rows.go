package embedding

import (
	"cmp"
	"slices"
)

// Rows is a set of dim-wide vectors, each under an id, stored row by row in
// one array so a scan reads dense memory. It is the one nearest-vector
// kernel: the answer cache's semantic tier, the routing index's centroids,
// the memory graph and each vector-database shard keep their vectors in it.
// Rows is not safe for concurrent use, but Len, ID, Row and TopK never
// write, so any number of them may run while no write does.
type Rows[ID cmp.Ordered] struct {
	dim  int
	vecs Vector
	ids  []ID
}

// NewRows returns an empty set of dim-wide rows with room for capacity
// rows before its arrays grow.
func NewRows[ID cmp.Ordered](dim, capacity int) *Rows[ID] {
	return &Rows[ID]{dim: dim, vecs: make(Vector, 0, dim*capacity), ids: make([]ID, 0, capacity)}
}

// Len returns the number of rows.
func (r *Rows[ID]) Len() int { return len(r.ids) }

// ID returns row i's id.
func (r *Rows[ID]) ID(i int) ID { return r.ids[i] }

// Row returns row i. Writes to it change the stored row.
func (r *Rows[ID]) Row(i int) Vector { return r.vecs[i*r.dim : (i+1)*r.dim : (i+1)*r.dim] }

// Append adds a copy of v, which is dim wide, as the last row, under id.
func (r *Rows[ID]) Append(id ID, v Vector) {
	r.vecs = append(r.vecs, v[:r.dim]...)
	r.ids = append(r.ids, id)
}

// Set overwrites row i with a copy of v, under id.
func (r *Rows[ID]) Set(i int, id ID, v Vector) {
	copy(r.Row(i), v[:r.dim])
	r.ids[i] = id
}

// SwapRemove removes row i by moving the last row into its place, and
// reports the id of the row that moved; ok is false when row i was the
// last, and nothing moved.
func (r *Rows[ID]) SwapRemove(i int) (moved ID, ok bool) {
	last := len(r.ids) - 1
	if ok = i != last; ok {
		moved = r.ids[last]
		r.Set(i, moved, r.Row(last))
	}
	r.truncate(last)
	return moved, ok
}

// Reset removes every row, keeping the arrays for the rows to come.
func (r *Rows[ID]) Reset() { r.truncate(0) }

// truncate keeps the first n rows. The ids it drops are zeroed: a string
// the array still held would stay reachable.
func (r *Rows[ID]) truncate(n int) {
	clear(r.ids[n:])
	r.ids, r.vecs = r.ids[:n], r.vecs[:n*r.dim]
}

// Trim gives back the room of removed rows: once the rows fill under half
// of it, they move to arrays that just fit them, a copy the removals since
// the arrays last grew have paid for. A set that shrank then holds only
// what it holds, and the next Append grows it as usual.
func (r *Rows[ID]) Trim() {
	if 2*len(r.vecs) < cap(r.vecs) {
		r.ids, r.vecs = slices.Clone(r.ids), slices.Clone(r.vecs)
	}
}

// TopK selects the k rows nearest q by ⟨q, v⟩ — for unit vectors, their
// cosine similarity — into dst's array, best first. It lists q's nonzero
// coordinates once and scores each row over only those (DotNonzero), so a
// scan costs rows × q's nonzeros, not rows × dim; the scores are Dot's,
// bit for bit.
func (r *Rows[ID]) TopK(q Vector, k int, dst []Hit[ID]) []Hit[ID] {
	return r.TopKWhere(q, k, 0, nil, dst)
}

// TopKWhere is TopK over only the rows keep admits (every row, when keep
// is nil), each scoring ⟨q, v⟩ + shift. A shift of −1 scores a unit row
// by its cosine distance negated, −(1 − ⟨q, v⟩) exactly, so rows whose
// distances round alike rank by id, as a ranking by distance does.
func (r *Rows[ID]) TopKWhere(q Vector, k int, shift float64, keep func(i int) bool, dst []Hit[ID]) []Hit[ID] {
	var buf [maxStackDim]int32
	nz := Nonzero(q[:min(len(q), r.dim)], buf[:0])
	s := NewSelector(k, dst)
	for i, id := range r.ids {
		if keep == nil || keep(i) {
			s.Offer(id, DotNonzero(q, r.vecs[i*r.dim:(i+1)*r.dim], nz)+shift)
		}
	}
	return s.Sorted()
}

// maxStackDim is the widest query whose nonzero list TopK keeps on its
// stack; every registered encoder's dim fits. A wider query's list grows
// on the heap.
const maxStackDim = 1024

// Nonzero returns the indexes of v's nonzero coordinates, ascending, in
// dst's array.
func Nonzero(v Vector, dst []int32) []int32 {
	dst = dst[:0]
	for i, x := range v {
		if x != 0 {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// DotNonzero returns ⟨q, v⟩ summed over nz, the indexes of q's nonzero
// coordinates (Nonzero), each of which must index v. For a finite v it is
// Dot(q, v) bit for bit: every term it skips is ±0, and adding ±0 leaves
// the running sum unchanged, because a sum that starts at +0 is never −0.
// The terms it keeps are Dot's, in Dot's order, and each product of two
// float32s is exact in float64, so a fused multiply-add rounds alike.
func DotNonzero(q, v Vector, nz []int32) float64 {
	var s float64
	for _, j := range nz {
		s += float64(q[j]) * float64(v[j])
	}
	return s
}

// Hit is a selected id with its score.
type Hit[ID cmp.Ordered] struct {
	ID    ID
	Score float64
}

// worse reports whether a ranks after b: it scores lower, or the same
// under a greater id, so ties resolve alike whatever order hits come in.
func (a Hit[ID]) worse(b Hit[ID]) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// Selector keeps the k best of the hits offered to it, by score descending
// and then id ascending. Once it holds k, they form a heap with the worst
// on top, so a scan of n hits does O(n log k) work.
type Selector[ID cmp.Ordered] struct {
	k int
	h []Hit[ID]
}

// NewSelector returns a selector of the k best hits that keeps them in
// dst's array, growing it only when its capacity is under k.
func NewSelector[ID cmp.Ordered](k int, dst []Hit[ID]) Selector[ID] {
	return Selector[ID]{k: k, h: dst[:0]}
}

// Offer considers one hit.
func (s *Selector[ID]) Offer(id ID, score float64) {
	c := Hit[ID]{ID: id, Score: score}
	switch {
	case len(s.h) < s.k:
		if s.h = append(s.h, c); len(s.h) == s.k {
			heapify(s.h)
		}
	case s.k > 0 && s.h[0].worse(c):
		s.h[0] = c
		siftDown(s.h, 0)
	}
}

// Sorted returns the kept hits best first, sorted in place: each step
// moves the worst hit left in the heap to the back of it.
func (s *Selector[ID]) Sorted() []Hit[ID] {
	if len(s.h) < s.k {
		heapify(s.h)
	}
	for n := len(s.h) - 1; n > 0; n-- {
		s.h[0], s.h[n] = s.h[n], s.h[0]
		siftDown(s.h[:n], 0)
	}
	return s.h
}

func heapify[ID cmp.Ordered](h []Hit[ID]) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// siftDown moves h[i] down until no child of it is worse.
func siftDown[ID cmp.Ordered](h []Hit[ID], i int) {
	for {
		worst, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].worse(h[worst]) {
			worst = l
		}
		if r < len(h) && h[r].worse(h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
