package vectordb_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"llmms/internal/embedding"
	"llmms/internal/rag"
	"llmms/internal/truthfulqa"
	"llmms/internal/vectordb"
)

// retrievalCase is one row of TestRetrievalMatchesReference: a collection
// of Shards shards holding the benchmark's questions, every question asked
// of it for the top K, kept to the documents of DocID when it is set.
type retrievalCase struct {
	Name   string
	Shards int
	K      int
	DocID  string
}

// questionDocs are the 817 benchmark questions as RAG chunks: a question's
// category is its document.
var questionDocs = func() []vectordb.Document {
	items := truthfulqa.Generate(817, 1)
	docs := make([]vectordb.Document, len(items))
	for i, it := range items {
		docs[i] = vectordb.Document{ID: fmt.Sprintf("q%03d", i), Text: it.Question, Metadata: vectordb.Metadata{"doc_id": it.Category}}
	}
	return docs
}()

// sameResults fails t unless got is want: the same ids in the same order,
// the same distances and similarities bit for bit.
func sameResults(t *testing.T, what string, got, want []vectordb.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) ||
			math.Float64bits(got[i].Similarity) != math.Float64bits(want[i].Similarity) {
			t.Fatalf("%s: result %d is %s at %v (%v), want %s at %v (%v)",
				what, i, got[i].ID, got[i].Distance, got[i].Similarity, want[i].ID, want[i].Distance, want[i].Similarity)
		}
	}
}

// rankings answers each question with ref over every document, once for
// all of TestRetrievalMatchesReference's cases: a top k is a prefix of it.
type rankings struct {
	ref  *vectordb.Reference
	memo map[rankingKey][]vectordb.Result
}

type rankingKey struct {
	probe, docID string
	byVector     bool
}

func (r *rankings) topK(req vectordb.QueryRequest) []vectordb.Result {
	docID, _ := req.Where["doc_id"].(string)
	key := rankingKey{req.Text, docID, req.Embedding != nil}
	all, ok := r.memo[key]
	if !ok {
		full := req
		full.TopK = math.MaxInt
		all = r.ref.Query(full)
		r.memo[key] = all
	}
	return all[:min(req.TopK, len(all))]
}

// checkRetrieval asks col for probe's top k, through rag.Retrieve with its
// text and through Collection.Query with its encoding, and fails t unless
// each returns what answer returns for the same request.
func checkRetrieval(t *testing.T, col *vectordb.Collection, answer func(vectordb.QueryRequest) []vectordb.Result, probe string, k int, docID string) {
	t.Helper()
	req := vectordb.QueryRequest{Text: probe, TopK: k}
	if docID != "" {
		req.Where = vectordb.Metadata{"doc_id": docID}
	}
	got, err := rag.Retrieve(col, probe, k, docID)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, fmt.Sprintf("rag.Retrieve(%q, %d, %q)", probe, k, docID), got, answer(req))
	req.Embedding = embedding.Default().Encode(probe)
	want := answer(req)
	req.Text = ""
	if got, err = col.Query(req); err != nil {
		t.Fatal(err)
	}
	sameResults(t, fmt.Sprintf("Query(Encode(%q), %d, %q)", probe, k, docID), got, want)
}

func runRetrievalCase(t *testing.T, tc retrievalCase, want *rankings) {
	col, err := vectordb.New().CreateCollection("questions", vectordb.CollectionConfig{Shards: tc.Shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Upsert(questionDocs...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(questionDocs); i += probeStride {
		checkRetrieval(t, col, want.topK, questionDocs[i].Text, tc.K, tc.DocID)
	}
}

// TestRetrievalMatchesReference holds retrieval to the flat scan it
// replaced: over the benchmark's questions, probed with each of them, at 1
// and 4 shards, for k of 1, 3 and more than there are documents, with and
// without a doc_id filter. Under the race detector, which slows the scans
// more than tenfold, every probeStride-th question probes.
func TestRetrievalMatchesReference(t *testing.T) {
	var cases []retrievalCase
	for _, shards := range []int{1, 4} {
		for _, k := range []int{1, 3, len(questionDocs) + 1} {
			for _, docID := range []string{"", "Geography"} {
				cases = append(cases, retrievalCase{
					Name:   fmt.Sprintf("shards=%d/k=%d/doc_id=%q", shards, k, docID),
					Shards: shards, K: k, DocID: docID,
				})
			}
		}
	}
	want := &rankings{ref: vectordb.NewReference(embedding.Default(), questionDocs), memo: map[rankingKey][]vectordb.Result{}}
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) { runRetrievalCase(t, tc, want) })
	}
}

// FuzzRetrieval holds the same property over arbitrary texts: one
// document per line of corpus, in one of three documents by line number,
// the same texts inserted twice so ties occur, probed with probe.
func FuzzRetrieval(f *testing.F) {
	f.Add("Are bats blind?\nBats are not blind.\nthe\n\nWhat happens if you swallow gum?", "are bats blind", uint8(3), uint8(2), true)
	f.Add("Paris is the capital of France.\nParis is the capital of France.", "capital of france", uint8(1), uint8(0), false)
	f.Add("", "anything", uint8(4), uint8(9), false)
	f.Add("a b c\nc b a\nb a c", "", uint8(2), uint8(1), true)
	f.Fuzz(func(t *testing.T, corpus, probe string, shards, k uint8, filtered bool) {
		var docs []vectordb.Document
		for i, line := range strings.Split(corpus, "\n") {
			docs = append(docs, vectordb.Document{ID: fmt.Sprintf("d%d", i), Text: line, Metadata: vectordb.Metadata{"doc_id": fmt.Sprint(i % 3)}})
		}
		twins := make([]vectordb.Document, len(docs))
		for i, d := range docs {
			d.ID = "twin-" + d.ID
			twins[i] = d
		}
		docs = append(docs, twins...)
		col, err := vectordb.New().CreateCollection("fuzz", vectordb.CollectionConfig{Shards: 1 + int(shards%5)})
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Upsert(docs...); err != nil {
			t.Fatal(err)
		}
		docID := ""
		if filtered {
			docID = "1"
		}
		if probe == "" {
			if _, err := rag.Retrieve(col, probe, int(k), docID); err == nil {
				t.Fatal("an empty question was answered")
			}
			return
		}
		checkRetrieval(t, col, vectordb.NewReference(embedding.Default(), docs).Query, probe, int(k), docID)
	})
}

// TestRowsFollowWrites holds retrieval to the reference through the writes
// that move rows: upserts that replace, deletes and DeleteWhere, each of
// which swaps another document into the removed row, among documents whose
// vectors are data (a one-element placeholder) and never candidates.
func TestRowsFollowWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shards := range []int{1, 4} {
		col, err := vectordb.New().CreateCollection("writes", vectordb.CollectionConfig{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]vectordb.Document{}
		for step := 0; step < 400; step++ {
			id := fmt.Sprintf("d%02d", rng.Intn(60))
			switch op := rng.Intn(10); {
			case op < 6:
				d := questionDocs[rng.Intn(len(questionDocs))]
				d.ID = id
				if err := col.Upsert(d); err != nil {
					t.Fatal(err)
				}
				model[id] = d
			case op < 7:
				if err := col.Upsert(vectordb.Document{ID: id, Text: "placeholder", Embedding: embedding.Vector{0}}); err != nil {
					t.Fatal(err)
				}
				delete(model, id)
			case op < 9:
				col.Delete(id)
				delete(model, id)
			default:
				docID := questionDocs[rng.Intn(len(questionDocs))].Metadata["doc_id"]
				if _, err := col.DeleteWhere(vectordb.Metadata{"doc_id": docID}); err != nil {
					t.Fatal(err)
				}
				for id, d := range model {
					if d.Metadata["doc_id"] == docID {
						delete(model, id)
					}
				}
			}
			if step%20 != 19 {
				continue
			}
			docs := make([]vectordb.Document, 0, len(model))
			for _, d := range model {
				docs = append(docs, d)
			}
			slices.SortFunc(docs, func(a, b vectordb.Document) int { return strings.Compare(a.ID, b.ID) })
			ref := vectordb.NewReference(embedding.Default(), docs)
			for _, probe := range questionDocs[:8] {
				checkRetrieval(t, col, ref.Query, probe.Text, 5, "")
			}
			for _, d := range docs {
				if got := col.Get(d.ID); len(got) != 1 || got[0].Text != d.Text {
					t.Fatalf("%s: Get = %v, want %q", d.ID, got, d.Text)
				}
			}
		}
	}
}
