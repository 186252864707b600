package core

import (
	"sync"

	"llmms/internal/embedding"
)

// This file implements the scoring fast path (DESIGN.md "Scoring fast
// path"). A scorer owns one query's scoring state and makes the
// per-round score-and-reallocate pass — the algorithmic heart of both
// OUA and MAB — cost O(new tokens) + O(N·dim) instead of the naive
// O(total response tokens) + O(N²·dim):
//
//   - Embeddings are incremental: each candidate keeps an
//     embedding.Accumulator, extended with only the text generated since
//     the previous pass (boundary seams handled inside the accumulator),
//     and materialized in place into the accumulator's own vector (View).
//     The scorer itself is pooled, and so are its accumulators, the
//     prompt's included: release returns them all when the query ends.
//
//   - The inter-model agreement term uses the sum-vector identity: with
//     S = Σ members' embeddings, the average similarity of candidate c
//     to the others is (⟨c,S⟩ − ⟨c,c⟩)/(n−1), because ⟨c,S⟩ counts c's
//     similarity to itself once. One O(dim) dot per candidate replaces
//     the O(N²) pairwise loop, and S is maintained incrementally as
//     candidates re-embed, join, or leave the scoring set (prunes,
//     failures, subset changes between strategy phases).
//
//   - Similarities are cached: a candidate whose embedding did not
//     change keeps its query similarity, and also its inter-model
//     similarity when the membership sum is untouched, so a MAB pull
//     re-scores one arm in O(dim), not O(N·dim).
//
// Scoring is numerically score-identical to the pairwise reference
// (property-tested to 1e-9 in scorer_test.go); encoder output is unit
// (or zero) by contract, so similarities use embedding.CosineUnit and
// never recompute norms.
type scorer struct {
	enc         embedding.Encoder
	qv          embedding.Vector
	alpha, beta float64

	// sum is S = Σ members' embeddings, kept in float64 so repeated
	// add/subtract cycles do not accumulate float32 rounding.
	sum []float64
	// members is the current scoring set: candidates whose embeddings
	// are folded into sum. Each pass syncs it to the passed slice.
	members map[*candidate]bool
	// inPass is reusable scratch for the membership sync.
	inPass map[*candidate]bool
	// accs are the accumulators qv and every c.emb are views of, given
	// back to the encoder by release when the query ends.
	accs []*embedding.Accumulator
}

// scorers recycles the per-query scoring workspace: the agreement sum,
// the membership maps and the accumulator list.
var scorers = sync.Pool{New: func() any {
	return &scorer{members: make(map[*candidate]bool), inPass: make(map[*candidate]bool)}
}}

// pass brings every candidate's querySim, interSim, and score up to date
// for the scoring set cands. Candidates with empty responses score zero;
// candidates outside cands (pruned, failed, phase-filtered) are removed
// from the agreement sum so the surviving pool only agrees with itself.
func (s *scorer) pass(cands []*candidate) {
	sumChanged := s.syncMembers(cands)
	for _, c := range cands {
		if s.refresh(c) {
			sumChanged = true
		}
	}
	n := len(s.members)
	for _, c := range cands {
		if c.emb == nil {
			c.querySim, c.interSim, c.score = 0, 0, 0
			continue
		}
		if !c.simsValid {
			c.querySim = embedding.CosineUnit(s.qv, c.emb)
		}
		if sumChanged || !c.simsValid {
			if n >= 2 {
				c.interSim = (dotSum(c.emb, s.sum) - c.selfDot) / float64(n-1)
			} else {
				c.interSim = 0
			}
		}
		c.simsValid = true
		c.score = s.alpha*c.querySim + s.beta*c.interSim
	}
}

// syncMembers removes candidates that left the scoring set from the
// agreement sum and reports whether the sum changed. Additions happen in
// refresh, once the candidate has an embedding.
func (s *scorer) syncMembers(cands []*candidate) bool {
	if len(s.members) == 0 {
		return false
	}
	clear(s.inPass)
	for _, c := range cands {
		s.inPass[c] = true
	}
	changed := false
	for m := range s.members {
		if !s.inPass[m] {
			s.subVec(m.emb)
			delete(s.members, m)
			changed = true
		}
	}
	return changed
}

// refresh brings one candidate's embedding up to date with its response
// and keeps the agreement sum consistent, reporting whether the sum
// changed. The embedding vector storage is reused across rounds: the old
// contribution is subtracted from the sum before the in-place overwrite.
func (s *scorer) refresh(c *candidate) bool {
	if c.response == "" {
		return false
	}
	if c.emb != nil && c.encoded == len(c.response) {
		// Unchanged since the last pass; join the sum if newly in set.
		if !s.members[c] {
			s.addVec(c.emb)
			s.members[c] = true
			return true
		}
		return false
	}
	wasMember := s.members[c]
	if wasMember {
		s.subVec(c.emb)
	}
	if c.acc == nil {
		c.acc, _ = embedding.NewAccumulator(s.enc) // the orchestrator's encoder is Incremental
		s.accs = append(s.accs, c.acc)
	}
	c.acc.Add(c.response[c.encoded:])
	c.emb = c.acc.View()
	c.encoded = len(c.response)
	c.selfDot = embedding.Dot(c.emb, c.emb)
	c.simsValid = false
	s.addVec(c.emb)
	s.members[c] = true
	return true
}

// release returns the prompt's and the candidates' accumulators to the
// encoder's pool and the scorer to its own. The run's close calls it after
// its session sweep, so it runs on every exit path of a query, after the
// Result is built, and nothing is scored afterwards.
func (s *scorer) release() {
	for _, acc := range s.accs {
		acc.Release()
	}
	clear(s.accs)
	s.accs = s.accs[:0]
	clear(s.members)
	clear(s.inPass)
	clear(s.sum)
	s.enc, s.qv = nil, nil
	scorers.Put(s)
}

func (s *scorer) addVec(v embedding.Vector) {
	if len(s.sum) != len(v) {
		s.sum = make([]float64, len(v))
	}
	for i, x := range v {
		s.sum[i] += float64(x)
	}
}

func (s *scorer) subVec(v embedding.Vector) {
	for i, x := range v {
		if i < len(s.sum) {
			s.sum[i] -= float64(x)
		}
	}
}

// dotSum is the mixed-precision dot product of a float32 embedding with
// the float64 agreement sum.
func dotSum(v embedding.Vector, sum []float64) float64 {
	n := len(v)
	if len(sum) < n {
		n = len(sum)
	}
	var s float64
	for i := 0; i < n; i++ {
		s += float64(v[i]) * sum[i]
	}
	return s
}

// newScorer takes a recycled scorer for the orchestrator's encoder and
// score weights, with the prompt's vector borrowed into its accumulators.
func (o *Orchestrator) newScorer(prompt string) *scorer {
	s := scorers.Get().(*scorer)
	s.enc, s.alpha, s.beta = o.enc, o.cfg.Alpha, o.cfg.Beta
	var acc *embedding.Accumulator
	s.qv, acc = embedding.Borrow(s.enc, prompt)
	s.accs = append(s.accs, acc)
	return s
}
