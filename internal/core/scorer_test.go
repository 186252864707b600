package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"llmms/internal/embedding"
)

// newScorer builds an unpooled scorer over an encoded prompt vector: the
// reference form of Orchestrator.newScorer, which recycles the workspace
// and borrows the prompt's vector.
func newScorer(enc embedding.Encoder, qv embedding.Vector, alpha, beta float64) *scorer {
	return &scorer{
		enc: enc, qv: qv, alpha: alpha, beta: beta,
		members: make(map[*candidate]bool),
		inPass:  make(map[*candidate]bool),
	}
}

// scoreAll computes the combined score for every candidate with a
// non-empty response: α·cos(resp, prompt) + β·(average cosine to the
// other candidates' responses). It is the one-shot form of the scoring
// fast path: a fresh scorer runs a single pass, so all the incremental
// machinery reduces to encode-everything-then-score while staying the
// same code the per-round strategies exercise.
func scoreAll(enc embedding.Encoder, qv embedding.Vector, alpha, beta float64, cands []*candidate) {
	newScorer(enc, qv, alpha, beta).pass(cands)
}

// pairwiseReference scores cands the pre-fast-path way — full pairwise
// inter-similarity over unit embeddings — into parallel result slices,
// without touching the candidates' cached state.
func pairwiseReference(qv embedding.Vector, alpha, beta float64, cands []*candidate) (qs, is, scores []float64) {
	qs = make([]float64, len(cands))
	is = make([]float64, len(cands))
	scores = make([]float64, len(cands))
	for i, c := range cands {
		if c.emb == nil {
			continue
		}
		qs[i] = embedding.CosineUnit(qv, c.emb)
		sum, n := 0.0, 0
		for j, other := range cands {
			if j == i || other.emb == nil {
				continue
			}
			sum += embedding.CosineUnit(c.emb, other.emb)
			n++
		}
		if n > 0 {
			is[i] = sum / float64(n)
		}
		scores[i] = alpha*qs[i] + beta*is[i]
	}
	return qs, is, scores
}

// TestScorerMatchesPairwise is the sum-vector identity property test: over
// randomized multi-round runs with growing responses, prunes, removals,
// and re-admissions, the incremental scorer's querySim/interSim/score
// match the O(N²) pairwise reference within 1e-9 after every pass.
func TestScorerMatchesPairwise(t *testing.T) {
	enc := embedding.Default()
	qv := enc.Encode("is the great wall of china visible from space with the naked eye")
	phrases := []string{
		"the wall is not visible from low earth orbit ",
		"astronauts report seeing cities and rivers but not the wall ",
		"it is a common myth repeated in textbooks ",
		"the wall is long but narrow which limits visibility ",
		"under ideal conditions radar imaging can detect it ",
		"", // a candidate can go a round without new text
	}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 2 + rng.Intn(5)
		cands := make([]*candidate, n)
		for i := range cands {
			cands[i] = &candidate{model: fmt.Sprintf("m%d", i)}
		}
		sc := newScorer(enc, qv, 0.7, 0.3)
		var rs roundScratch
		rounds := 3 + rng.Intn(6)
		for r := 0; r < rounds; r++ {
			for _, c := range cands {
				c.response += phrases[rng.Intn(len(phrases))]
			}
			// Random prunes and re-admissions exercise membership churn in
			// the agreement sum (prunes shrink the set; hybrid-style phase
			// changes re-admit candidates the previous pass excluded).
			if r > 0 && rng.Intn(3) == 0 {
				cands[rng.Intn(n)].pruned = true
			}
			if rng.Intn(4) == 0 {
				cands[rng.Intn(n)].pruned = false
			}
			active := rs.unpruned(cands)
			if len(active) == 0 {
				continue
			}
			sc.pass(active)
			qs, is, scores := pairwiseReference(qv, 0.7, 0.3, active)
			for i, c := range active {
				if d := math.Abs(c.querySim - qs[i]); d > 1e-9 {
					t.Fatalf("trial %d round %d %s: querySim off by %g", trial, r, c.model, d)
				}
				if d := math.Abs(c.interSim - is[i]); d > 1e-9 {
					t.Fatalf("trial %d round %d %s: interSim off by %g", trial, r, c.model, d)
				}
				if d := math.Abs(c.score - scores[i]); d > 1e-9 {
					t.Fatalf("trial %d round %d %s: score off by %g", trial, r, c.model, d)
				}
			}
		}
	}
}

// TestScorerPruneRemovesFromSum pins the membership semantics directly: a
// pruned candidate must stop contributing to the survivors' agreement
// term on the very next pass.
func TestScorerPruneRemovesFromSum(t *testing.T) {
	enc := embedding.Default()
	qv := enc.Encode("what color is the sky")
	a := &candidate{model: "a", response: "the sky is blue during the day"}
	b := &candidate{model: "b", response: "the sky appears blue because of rayleigh scattering"}
	c := &candidate{model: "c", response: "submarines use sonar to navigate underwater"}
	sc := newScorer(enc, qv, 0.7, 0.3)
	sc.pass([]*candidate{a, b, c})
	withLoner := a.interSim
	sc.pass([]*candidate{a, b})
	if a.interSim <= withLoner {
		t.Fatalf("pruning the off-topic candidate should raise a's agreement: %f -> %f",
			withLoner, a.interSim)
	}
	want := embedding.CosineUnit(a.emb, b.emb)
	if d := math.Abs(a.interSim - want); d > 1e-9 {
		t.Fatalf("two-candidate interSim off by %g", d)
	}
}

// TestScorerUnchangedCandidateKeepsSims pins the re-score cache: a pass
// in which nothing changed recomputes no similarity (observable through
// identical values), and a single-candidate change updates everyone's
// interSim because the agreement sum moved.
func TestScorerUnchangedCandidateKeepsSims(t *testing.T) {
	enc := embedding.Default()
	qv := enc.Encode("what color is the sky")
	a := &candidate{model: "a", response: "the sky is blue"}
	b := &candidate{model: "b", response: "the sky appears blue"}
	cands := []*candidate{a, b}
	sc := newScorer(enc, qv, 0.7, 0.3)
	sc.pass(cands)
	q1, i1 := a.querySim, a.interSim
	sc.pass(cands) // nothing changed
	if a.querySim != q1 || a.interSim != i1 {
		t.Fatal("no-op pass changed cached similarities")
	}
	b.response += " because of rayleigh scattering"
	sc.pass(cands)
	if a.querySim != q1 {
		t.Fatal("a's querySim must be unaffected by b's new text")
	}
	if a.interSim == i1 {
		t.Fatal("a's interSim must track b's changed embedding")
	}
	qs, is, _ := pairwiseReference(qv, 0.7, 0.3, cands)
	for i, c := range cands {
		if math.Abs(c.querySim-qs[i]) > 1e-9 || math.Abs(c.interSim-is[i]) > 1e-9 {
			t.Fatalf("candidate %s diverged from pairwise reference", c.model)
		}
	}
}
