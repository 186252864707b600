package vectordb

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"llmms/internal/embedding"
)

func newTestCollection(t *testing.T, cfg CollectionConfig) *Collection {
	t.Helper()
	db := New()
	c, err := db.CreateCollection("test", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAddAndQueryByText(t *testing.T) {
	c := newTestCollection(t, CollectionConfig{})
	err := c.Add(
		Document{ID: "gum", Text: "Chewing gum passes through the digestive system if swallowed."},
		Document{ID: "wall", Text: "The Great Wall of China is not visible from the Moon."},
		Document{ID: "bats", Text: "Bats are not blind and many use echolocation."},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(QueryRequest{Text: "what happens when you swallow gum", TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != "gum" {
		t.Fatalf("got %+v, want top hit 'gum'", res)
	}
	if res[0].Similarity <= 0 {
		t.Fatalf("expected positive similarity, got %v", res[0].Similarity)
	}
}

func TestAddDuplicateFails(t *testing.T) {
	c := newTestCollection(t, CollectionConfig{})
	if err := c.Add(Document{ID: "a", Text: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Document{ID: "a", Text: "y"}); err == nil {
		t.Fatal("expected duplicate id error")
	}
	if err := c.Add(Document{ID: "", Text: "y"}); err == nil {
		t.Fatal("expected empty id error")
	}
}

func TestUpsertReplaces(t *testing.T) {
	c := newTestCollection(t, CollectionConfig{})
	if err := c.Upsert(Document{ID: "a", Text: "the original text about cats"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Upsert(Document{ID: "a", Text: "completely different content about volcanoes"}); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 1 {
		t.Fatalf("count = %d, want 1", c.Count())
	}
	docs := c.Get("a")
	if len(docs) != 1 || docs[0].Text != "completely different content about volcanoes" {
		t.Fatalf("upsert did not replace: %+v", docs)
	}
	res, err := c.Query(QueryRequest{Text: "volcanoes", TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != "a" {
		t.Fatalf("query after upsert: %+v", res)
	}
}

func TestDelete(t *testing.T) {
	c := newTestCollection(t, CollectionConfig{})
	for i := 0; i < 5; i++ {
		if err := c.Add(Document{ID: fmt.Sprintf("d%d", i), Text: fmt.Sprintf("document number %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Delete("d1", "d3", "missing"); n != 2 {
		t.Fatalf("Delete removed %d, want 2", n)
	}
	if c.Count() != 3 {
		t.Fatalf("count = %d, want 3", c.Count())
	}
	res, err := c.Query(QueryRequest{Text: "document number 1", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ID == "d1" || r.ID == "d3" {
			t.Fatalf("deleted doc %s still returned", r.ID)
		}
	}
}

// TestDeletesGiveMemoryBack: a collection that shrank holds about what it
// still holds. Its rows are cut to fit once removals leave them under
// half full, so 10 documents left of 2 000 keep far less than the 2 000
// vectors' 2 MiB.
func TestDeletesGiveMemoryBack(t *testing.T) {
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	c := newTestCollection(t, CollectionConfig{Shards: 2})
	base := live()
	var ids []string
	for i := range 2000 {
		ids = append(ids, fmt.Sprintf("d%d", i))
		if err := c.Upsert(Document{ID: ids[i], Text: fmt.Sprintf("document number %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Delete(ids[10:]...); n != 1990 {
		t.Fatalf("Delete removed %d, want 1990", n)
	}
	if kept := live() - base; kept > 512<<10 {
		t.Fatalf("10 documents keep %d KiB", kept>>10)
	}
	if c.Count() != 10 {
		t.Fatalf("count = %d, want 10", c.Count())
	}
}

func TestQueryValidation(t *testing.T) {
	c := newTestCollection(t, CollectionConfig{})
	if _, err := c.Query(QueryRequest{}); err == nil {
		t.Fatal("expected error for query without text or embedding")
	}
}

func TestQueryByEmbedding(t *testing.T) {
	enc := embedding.Default()
	c := newTestCollection(t, CollectionConfig{Encoder: enc})
	if err := c.Add(Document{ID: "x", Text: "lightning can strike the same place twice"}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(QueryRequest{Embedding: enc.Encode("lightning strikes twice"), TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != "x" {
		t.Fatalf("got %+v", res)
	}
}

func TestMetadataFilters(t *testing.T) {
	c := newTestCollection(t, CollectionConfig{})
	err := c.Add(
		Document{ID: "a", Text: "alpha doc", Metadata: Metadata{"category": "health", "page": 1}},
		Document{ID: "b", Text: "beta doc", Metadata: Metadata{"category": "law", "page": 2}},
		Document{ID: "c", Text: "gamma doc", Metadata: Metadata{"category": "health", "page": 3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Where is field equality, ANDed. The Chroma operators it once
	// compiled are refused (want nil), each with an error.
	cases := []struct {
		name  string
		where Metadata
		want  map[string]bool
	}{
		{"eq-shorthand", Metadata{"category": "health"}, map[string]bool{"a": true, "c": true}},
		{"eq-op", Metadata{"category": Metadata{"$eq": "law"}}, nil},
		{"ne", Metadata{"category": Metadata{"$ne": "health"}}, nil},
		{"gt", Metadata{"page": Metadata{"$gt": 1}}, nil},
		{"gte", Metadata{"page": Metadata{"$gte": 2}}, nil},
		{"lt", Metadata{"page": Metadata{"$lt": 2}}, nil},
		{"lte", Metadata{"page": Metadata{"$lte": 2}}, nil},
		{"in", Metadata{"category": Metadata{"$in": []any{"law", "science"}}}, nil},
		{"nin", Metadata{"category": Metadata{"$nin": []any{"law"}}}, nil},
		{"and", Metadata{"$and": []any{
			map[string]any{"category": "health"},
			map[string]any{"page": map[string]any{"$gt": 1}},
		}}, nil},
		{"or", Metadata{"$or": []any{
			map[string]any{"page": 1},
			map[string]any{"page": 2},
		}}, nil},
		{"multi-field-implicit-and", Metadata{"category": "health", "page": 3}, map[string]bool{"c": true}},
		{"int-matches-float", Metadata{"page": 2.0}, map[string]bool{"b": true}},
		{"missing-field", Metadata{"author": "x"}, map[string]bool{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := c.Query(QueryRequest{Text: "doc", TopK: 10, Where: tc.where})
			if tc.want == nil {
				if err == nil {
					t.Fatalf("Where %v answered %d results, want an error", tc.where, len(res))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			for _, r := range res {
				got[r.ID] = true
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got ids %v, want %v", got, tc.want)
			}
			for id := range tc.want {
				if !got[id] {
					t.Fatalf("missing id %s: got %v", id, got)
				}
			}
		})
	}
}

func TestBadFilters(t *testing.T) {
	c := newTestCollection(t, CollectionConfig{})
	if err := c.Add(Document{ID: "a", Text: "x", Metadata: Metadata{"k": 1}}); err != nil {
		t.Fatal(err)
	}
	bad := []Metadata{
		{"k": Metadata{"$bogus": 1}},
		{"$xor": []any{}},
		{"k": Metadata{"$gt": "not-a-number"}},
		{"k": Metadata{"$in": 5}},
		// Values that are not scalars; two []any once panicked on ==.
		{"k": []any{1}},
		{"k": nil},
		{"k": struct{}{}},
		{"$contains": "x"},
	}
	if err := c.Add(Document{ID: "list", Text: "x", Metadata: Metadata{"k": []any{1}}}); err != nil {
		t.Fatal(err)
	}
	for _, w := range bad {
		if _, err := c.Query(QueryRequest{Text: "x", Where: w}); err == nil {
			t.Errorf("filter %v: expected error", w)
		}
		if _, err := c.DeleteWhere(w); err == nil {
			t.Errorf("DeleteWhere %v: expected error", w)
		}
	}
	if c.Count() != 2 {
		t.Fatalf("a refused DeleteWhere deleted: %d documents left, want 2", c.Count())
	}
}

// TestQueryEmbeddingOfAnotherWidth: an explicit query vector must be as
// wide as the collection's encoder; a shorter or longer one (a 1024-d
// model's against the 256-d default) is an error, not a ranking of its
// common prefix.
func TestQueryEmbeddingOfAnotherWidth(t *testing.T) {
	c := newTestCollection(t, CollectionConfig{})
	if err := c.Add(Document{ID: "a", Text: "the yen is the currency of japan"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{embedding.ModelMxbai, embedding.ModelNomic} {
		enc, err := embedding.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := c.Query(QueryRequest{Embedding: enc.Encode("currency of japan")}); err == nil {
			t.Errorf("a %d-d query over a %d-d collection answered %v", enc.Dim(), embedding.Default().Dim(), res)
		}
	}
	if _, err := c.Query(QueryRequest{Embedding: embedding.Vector{1, 0}}); err == nil {
		t.Error("a 2-d query was answered")
	}
}

func TestDBCollectionLifecycle(t *testing.T) {
	db := New()
	if _, err := db.CreateCollection("", CollectionConfig{}); err == nil {
		t.Fatal("expected error for empty name")
	}
	if _, err := db.CreateCollection("c1", CollectionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateCollection("c1", CollectionConfig{}); err == nil {
		t.Fatal("expected duplicate collection error")
	}
	c, err := db.GetOrCreateCollection("c1", CollectionConfig{})
	if err != nil || c.Name() != "c1" {
		t.Fatalf("GetOrCreate existing: %v %v", c, err)
	}
	if _, err := db.GetOrCreateCollection("c2", CollectionConfig{}); err != nil {
		t.Fatal(err)
	}
	names := db.ListCollections()
	if len(names) != 2 || names[0] != "c1" || names[1] != "c2" {
		t.Fatalf("ListCollections = %v", names)
	}
	if err := db.DeleteCollection("c1"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteCollection("c1"); err == nil {
		t.Fatal("expected error deleting missing collection")
	}
	if _, err := db.Collection("c1"); err == nil {
		t.Fatal("expected error getting deleted collection")
	}
}

func TestResultsSortedByDistance(t *testing.T) {
	c := newTestCollection(t, CollectionConfig{})
	for i := 0; i < 20; i++ {
		if err := c.Add(Document{ID: fmt.Sprintf("d%d", i), Text: fmt.Sprintf("topic %d content words here", i)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Query(QueryRequest{Text: "topic 7 content", TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Distance > res[i].Distance {
			t.Fatalf("results not sorted: %v then %v", res[i-1].Distance, res[i].Distance)
		}
	}
}

func BenchmarkFlatQuery1000(b *testing.B) {
	db := New()
	c, _ := db.CreateCollection("bench", CollectionConfig{})
	for i := 0; i < 1000; i++ {
		_ = c.Add(Document{ID: fmt.Sprintf("d%d", i), Text: fmt.Sprintf("document about subject %d and matters of fact", i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Query(QueryRequest{Text: "subject 500 facts", TopK: 10})
	}
}

func TestDeleteWhere(t *testing.T) {
	db := New()
	c, err := db.CreateCollection("dw", CollectionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	docs := []Document{
		{ID: "a1", Text: "alpha one", Metadata: Metadata{"doc": "a", "page": 1}},
		{ID: "a2", Text: "alpha two", Metadata: Metadata{"doc": "a", "page": 2}},
		{ID: "b1", Text: "beta one", Metadata: Metadata{"doc": "b", "page": 1}},
	}
	if err := c.Add(docs...); err != nil {
		t.Fatal(err)
	}
	n, err := c.DeleteWhere(Metadata{"doc": "a"})
	if err != nil || n != 2 {
		t.Fatalf("DeleteWhere = %d, %v", n, err)
	}
	if c.Count() != 1 {
		t.Fatalf("count = %d", c.Count())
	}
	if got := c.Get("b1"); len(got) != 1 {
		t.Fatal("survivor lost")
	}
	// Deleted documents are gone from the index too.
	res, err := c.Query(QueryRequest{Text: "alpha", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Metadata["doc"] == "a" {
			t.Fatalf("deleted doc still searchable: %+v", r)
		}
	}
	// Invalid filters are rejected.
	if _, err := c.DeleteWhere(Metadata{"page": Metadata{"$weird": 1}}); err == nil {
		t.Fatal("expected error for invalid operator")
	}
}

// TestQueryHugeTopKReturnsEveryDocument: k is clamped to the live
// document count before anything is sized by it, so a k of 2^40 answers
// with the whole collection instead of exhausting memory, filtered or not.
func TestQueryHugeTopKReturnsEveryDocument(t *testing.T) {
	for _, index := range []string{"flat"} {
		c := newTestCollection(t, CollectionConfig{})
		if res, err := c.Query(QueryRequest{Text: "anything", TopK: 1 << 40}); err != nil || len(res) != 0 {
			t.Fatalf("%s: empty collection = (%v, %v), want no results", index, res, err)
		}
		for i := 0; i < 12; i++ {
			if err := c.Add(Document{ID: fmt.Sprintf("d%02d", i), Text: fmt.Sprintf("document number %d about bats", i),
				Metadata: Metadata{"even": i%2 == 0}}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.Query(QueryRequest{Text: "bats", TopK: 1 << 40})
		if err != nil || len(res) != 12 {
			t.Fatalf("%s: TopK 2^40 = %d results (%v), want all 12", index, len(res), err)
		}
		res, err = c.Query(QueryRequest{Text: "bats", TopK: 1 << 40, Where: Metadata{"even": true}})
		if err != nil || len(res) != 6 {
			t.Fatalf("%s: filtered TopK 2^40 = %d results (%v), want the 6 even documents", index, len(res), err)
		}
	}
}

// TestQueryMatchesSortEverything holds Query to the plainest reading of a
// top-k search: every live document that passes the filter, scored with
// its unit-cosine distance to the query, sorted by (distance, id), cut at
// k. It covers text and explicit-embedding queries, with and without
// Where, tied duplicate embeddings under distinct ids, and 1 and 4 shards;
// ids, distances and similarities agree bit for bit.
func TestQueryMatchesSortEverything(t *testing.T) {
	enc := embedding.Default()
	scaled := func(v embedding.Vector, by float32) embedding.Vector {
		out := embedding.Clone(v)
		for i := range out {
			out[i] *= by
		}
		return out
	}
	dup := enc.Encode("bats are not blind but see well at dusk")
	queries := []string{"topic 3 document words", "are bats blind", "bats are not blind but see well at dusk", "unrelated goldfish memory"}
	for _, tc := range []struct {
		name     string
		dupScale float32 // the duplicates' embedding is dup scaled by this
	}{
		{"cosine", 1},
	} {
		for _, shards := range []int{1, 4} {
			c := newCollection(tc.name, CollectionConfig{Shards: shards})
			for i := 0; i < 30; i++ {
				if err := c.Add(Document{ID: fmt.Sprintf("d%02d", i), Text: fmt.Sprintf("document %d about topic %d and bats", i, i%5),
					Metadata: Metadata{"even": i%2 == 0}}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ {
				if err := c.Add(Document{ID: fmt.Sprintf("dup%d", i), Text: "dup", Embedding: scaled(dup, tc.dupScale),
					Metadata: Metadata{"even": i%2 == 0}}); err != nil {
					t.Fatal(err)
				}
			}
			docs := c.All()
			for qi, text := range queries {
				req := QueryRequest{Text: text}
				q := enc.Encode(text)
				if qi%2 == 1 {
					req = QueryRequest{Embedding: q}
					q = embedding.Clone(q)
					embedding.NormalizeInPlace(q)
				}
				for _, where := range []Metadata{nil, {"even": true}} {
					var want []Result
					for _, d := range docs {
						if where != nil && d.Metadata["even"] != true {
							continue
						}
						dist := unitCosineDistance(q, d.Embedding)
						want = append(want, Result{ID: d.ID, Distance: dist, Similarity: 1 - dist})
					}
					sort.Slice(want, func(i, j int) bool {
						if want[i].Distance != want[j].Distance {
							return want[i].Distance < want[j].Distance
						}
						return want[i].ID < want[j].ID
					})
					for _, k := range []int{1, 3, 7, len(docs) + 5} {
						req.TopK, req.Where = k, where
						got, err := c.Query(req)
						if err != nil {
							t.Fatal(err)
						}
						w := want[:min(k, len(want))]
						if len(got) != len(w) {
							t.Fatalf("%s/%d shards, %q where %v, k %d: %d results, want %d", tc.name, shards, text, where, k, len(got), len(w))
						}
						for i := range got {
							if got[i].ID != w[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(w[i].Distance) ||
								math.Float64bits(got[i].Similarity) != math.Float64bits(w[i].Similarity) {
								t.Fatalf("%s/%d shards, %q where %v, k %d: result %d is %s at %v (%v), want %s at %v (%v)",
									tc.name, shards, text, where, k, i, got[i].ID, got[i].Distance, got[i].Similarity, w[i].ID, w[i].Distance, w[i].Similarity)
							}
						}
					}
				}
			}
		}
	}
}
