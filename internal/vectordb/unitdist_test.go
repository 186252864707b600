package vectordb

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"llmms/internal/embedding"
)

// TestUnitCosineFastPathMatchesGeneral pins the search's exactness: for
// encoder-embedded documents, distances under the unit dot product match
// the norm-recomputing cosine, 1 − Cosine(q, v), to float tolerance, for
// text queries and for an explicit query vector that is not unit.
func TestUnitCosineFastPathMatchesGeneral(t *testing.T) {
	texts := []string{
		"the great wall of china is not visible from space",
		"astronauts cannot see the wall with the naked eye",
		"goldfish have memories lasting months not seconds",
		"lightning can strike the same place twice",
		"the sky appears blue because of rayleigh scattering",
	}
	for _, idx := range []string{"flat"} {
		t.Run(idx, func(t *testing.T) {
			enc := embedding.Default()
			c := newCollection("fast", CollectionConfig{Shards: 1})
			for i, txt := range texts {
				if err := c.Add(Document{ID: fmt.Sprintf("d%d", i), Text: txt}); err != nil {
					t.Fatal(err)
				}
			}
			qv := enc.Encode("is the great wall visible from orbit")
			for i := range qv {
				qv[i] *= 3
			}
			for _, req := range []QueryRequest{
				{Text: "is the great wall visible from orbit", TopK: len(texts)},
				{Embedding: qv, TopK: len(texts)},
			} {
				got, err := c.Query(req)
				if err != nil {
					t.Fatal(err)
				}
				q := req.Embedding
				if q == nil {
					q = enc.Encode(req.Text)
				}
				want := make([]Result, len(texts))
				for i, txt := range texts {
					want[i] = Result{ID: fmt.Sprintf("d%d", i), Distance: 1 - embedding.Cosine(q, enc.Encode(txt))}
				}
				sort.Slice(want, func(i, j int) bool { return want[i].Distance < want[j].Distance })
				if len(got) != len(want) {
					t.Fatalf("result count %d != %d", len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID {
						t.Fatalf("rank %d: %s != %s", i, got[i].ID, want[i].ID)
					}
					if d := math.Abs(got[i].Distance - want[i].Distance); d > 1e-6 {
						t.Fatalf("rank %d distance off by %g", i, d)
					}
				}
			}
		})
	}
}

// TestNonUnitEmbeddingNormalizedOnInsert: an explicit vector of the
// collection's width is stored unit length — bit for bit when it already
// is, as its normalized copy when it is not — so a scaled copy of a
// document's vector ties with it, ahead of an off-topic document.
func TestNonUnitEmbeddingNormalizedOnInsert(t *testing.T) {
	c := newCollection("mixed", CollectionConfig{Shards: 1})
	if err := c.Add(Document{ID: "unit", Text: "the sky is blue"}); err != nil {
		t.Fatal(err)
	}
	unit := embedding.Default().Encode("grass is green in spring")
	if err := c.Add(Document{ID: "explicit-unit", Text: "grass is green in spring", Embedding: unit}); err != nil {
		t.Fatal(err)
	}
	scaled := embedding.Clone(unit)
	for i := range scaled {
		scaled[i] *= 5
	}
	if err := c.Add(Document{ID: "scaled", Embedding: scaled, Text: "grass is green in spring"}); err != nil {
		t.Fatal(err)
	}
	if got := c.Get("explicit-unit")[0].Embedding; !sameBits(got, unit) {
		t.Fatal("a unit embedding was not stored bit for bit")
	}
	want := embedding.Clone(scaled)
	embedding.NormalizeInPlace(want)
	if got := c.Get("scaled")[0].Embedding; !sameBits(got, want) {
		t.Fatal("a non-unit embedding was not stored as its unit copy")
	}
	if scaled[0] != 5*unit[0] {
		t.Fatal("the caller's vector was normalized in place")
	}
	res, err := c.Query(QueryRequest{Text: "what color is grass", TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if d := math.Abs(res[0].Distance - res[1].Distance); d > 1e-6 {
		t.Fatalf("identical-direction documents differ by %g", d)
	}
	if res[2].ID != "unit" {
		t.Fatalf("off-topic document ranked %v", res)
	}
}

// TestEmbeddingOfAnotherWidthIsData: a vector that is not the encoder's
// width — the one-element placeholders sessions and route clusters write,
// a 1024-d model's embedding — is stored and returned as given, holds no
// row, and is never a query's candidate. A vector that has a row is held
// there alone, and Get copies it out.
func TestEmbeddingOfAnotherWidthIsData(t *testing.T) {
	c := newCollection("data", CollectionConfig{Shards: 1})
	mxbai, err := embedding.Lookup(embedding.ModelMxbai)
	if err != nil {
		t.Fatal(err)
	}
	wide := mxbai.Encode("bats are not blind")
	for i := range wide {
		wide[i] *= 2
	}
	docs := []Document{
		{ID: "placeholder", Text: "bats are not blind", Embedding: embedding.Vector{0}},
		{ID: "wide", Text: "bats are not blind", Embedding: wide},
		{ID: "indexed", Text: "bats are not blind"},
	}
	if err := c.Add(docs...); err != nil {
		t.Fatal(err)
	}
	sh := c.shards[0]
	if sh.rows.Len() != 1 || sh.docs["indexed"].row != 0 || sh.docs["indexed"].Embedding != nil {
		t.Fatalf("%d rows; the indexed document keeps row %d and %d floats of its own, want 1, 0 and none",
			sh.rows.Len(), sh.docs["indexed"].row, len(sh.docs["indexed"].Embedding))
	}
	for _, d := range docs[:2] {
		if got := c.Get(d.ID)[0].Embedding; !sameBits(got, d.Embedding) {
			t.Fatalf("%s: stored %d floats, not the %d given", d.ID, len(got), len(d.Embedding))
		}
	}
	got := c.Get("indexed")[0].Embedding
	got[0]++
	if sameBits(got, c.Get("indexed")[0].Embedding) {
		t.Fatal("Get handed out the row itself")
	}
	res, err := c.Query(QueryRequest{Text: "are bats blind", TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != "indexed" {
		t.Fatalf("query answered %v, want only the indexed document", res)
	}
}

func sameBits(a, b embedding.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
