package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"llmms/internal/llm"
	"llmms/internal/qcache"
	"llmms/internal/rag"
)

// contextEcho answers every prompt with the part before its question — the
// retrieved context — so an answer names the chunks it was grounded in.
type contextEcho struct{}

func (contextEcho) GenerateChunk(_ context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	return llm.Chunk{Text: promptContext(req.Prompt), Done: true, DoneReason: llm.DoneStop, EvalCount: 1, TotalTokens: 1}, nil
}

func promptContext(prompt string) string {
	context, _, _ := strings.Cut(prompt, "Question: ")
	return "context|" + context
}

// The differential test's corpus and questions: sentences that overlap the
// questions in words, drawn with replacement, so documents share chunks
// and retrievals tie on distance.
var (
	coherenceSentences = []string{
		"Paris is the capital of France.", "The capital city of France is Paris.", "Lyon is a large city in France.",
		"Goldfish remember things for months.", "A goldfish has a memory of several months.",
		"Bats are not blind and many use echolocation.", "Most bats can see quite well.",
		"The sky is blue because of Rayleigh scattering.", "Sunlight scatters off the molecules of the air.",
		"Lightning can strike the same place twice.", "Tall buildings are struck by lightning many times a year.",
		"Tokyo is the capital of Japan.", "Cairo is the capital of Egypt.",
	}
	coherenceQuestions = []string{
		"What is the capital of France?", "How long do goldfish remember things?", "Are bats blind?",
		"Why is the sky blue?", "Can lightning strike the same place twice?", "What is the capital of Japan?",
		"Which city is the capital of Egypt?",
	}
)

// TestExactInvalidationMatchesFlushReference holds exact invalidation to
// the rule it replaced, flush on every write, kept here as the reference:
// a second qcache.Cache that is flushed by every upload, delete and
// settings change. One seeded sequence interleaves those writes with RAG
// queries, filtered to one document or not, and queries without RAG. Every
// answer — above all every one served from the cache — must carry the
// chunks, in order, that a fresh retrieval returns when it is served, and
// every query the reference would serve from its cache must be a HIT.
func TestExactInvalidationMatchesFlushReference(t *testing.T) {
	s, _ := newServingServer(t, ServingOptions{CacheTTL: time.Hour, CacheCapacity: 4096, SemanticThreshold: 2}, contextEcho{})
	ref := qcache.New(qcache.Options{Capacity: 4096, TTL: time.Hour, SemanticThreshold: 2})
	rng := rand.New(rand.NewSource(1))
	call := func(method, path string, body any) *httptest.ResponseRecorder {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(string(raw))))
		if rec.Code >= 300 {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec
	}
	var live, ever []string
	var uploaded [][]string
	upload := func() {
		// Half the uploads are an earlier one again, so that chunks tie.
		var sentences []string
		if len(uploaded) > 0 && rng.Intn(2) == 0 {
			sentences = slices.Clone(uploaded[rng.Intn(len(uploaded))])
		} else {
			sentences = make([]string, []int{1, 1, 1, 2, 3, 8, 20, 40}[rng.Intn(8)])
			for i := range sentences {
				sentences[i] = coherenceSentences[rng.Intn(len(coherenceSentences))]
			}
		}
		for i := range sentences {
			if rng.Intn(2) == 0 {
				// Another text, the same vector: a chunk that ties with the
				// original on distance and differs from it in the prompt.
				sentences[i] = strings.ToUpper(strings.TrimRight(sentences[i], ".!")) + "!"
			}
		}
		uploaded = append(uploaded, sentences)
		var up struct {
			DocID string `json:"doc_id"`
		}
		rec := call("POST", "/api/upload", map[string]any{"filename": "doc.txt", "content": strings.Join(sentences, " ")})
		if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
			t.Fatal(err)
		}
		live, ever = append(live, up.DocID), append(ever, up.DocID)
		ref.Flush()
	}
	for range 3 {
		upload()
	}

	served, survived, writes := map[bool]int{}, map[bool]int{}, 0
	for op := 0; op < 1000; op++ {
		switch r := rng.Intn(100); {
		case r < 12:
			upload()
			writes++
		case r < 22 && len(live) > 0:
			i := rng.Intn(len(live))
			call("DELETE", "/api/documents/"+live[i], nil)
			live = append(live[:i], live[i+1:]...)
			ref.Flush()
			writes++
		case r < 25:
			st := s.Settings()
			st.RAGTopK = 5 - st.RAGTopK // 3 ↔ 2
			call("PUT", "/api/settings", st)
			ref.Flush()
			writes++
		default:
			question := coherenceQuestions[rng.Intn(len(coherenceQuestions))]
			req := map[string]any{"query": question, "strategy": "single"}
			useRAG, docID := rng.Intn(4) > 0, ""
			if useRAG {
				req["use_rag"] = true
				if rng.Intn(3) == 0 {
					docID = ever[rng.Intn(len(ever))]
					req["doc_id"] = docID
				}
			}
			rec := call("POST", "/api/query", req)
			refKey := qcache.Key{Query: fmt.Sprint(req)}
			_, refKind := ref.Get(refKey)
			if refKind == qcache.Miss {
				ref.Put(refKey, true)
			}
			xcache := rec.Header().Get("X-Cache")
			if refKind != qcache.Miss && xcache != "HIT" {
				t.Fatalf("op %d: %v is a %s; flush-on-write would have served it from the cache", op, req, xcache)
			}

			var chunks []string
			if useRAG {
				found, err := rag.Retrieve(s.docs, question, s.Settings().RAGTopK, docID)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range found {
					chunks = append(chunks, f.Text)
				}
			}
			want := promptContext(rag.BuildPrompt(rag.PromptParts{Chunks: chunks, Question: question}))
			frames := sseFrames(t, rec.Body.String())
			var result struct {
				Result struct {
					Answer string `json:"answer"`
				} `json:"result"`
			}
			if last := frames[len(frames)-1]; last.Event != "result" || json.Unmarshal([]byte(last.Data), &result) != nil {
				t.Fatalf("op %d: the stream ends in %s %s", op, last.Event, last.Data)
			}
			if result.Result.Answer != want {
				t.Fatalf("op %d: %s answer to %v was grounded in\n%q\na fresh retrieval returns\n%q", op, xcache, req, result.Result.Answer, want)
			}
			if xcache == "HIT" {
				served[useRAG]++
				if refKind == qcache.Miss {
					survived[useRAG]++
				}
			}
		}
	}
	t.Logf("%d writes; hits %v, of them across a write %v; dropped upload %v, delete %v, settings %v", writes, served, survived,
		s.tel.CacheDropped.Value("upload"), s.tel.CacheDropped.Value("delete"), s.tel.CacheDropped.Value("settings"))
	if survived[true] < 20 || survived[false] < 20 || s.tel.CacheDropped.Value("upload") == 0 || s.tel.CacheDropped.Value("delete") == 0 {
		t.Fatal("the sequence no longer exercises answers kept and dropped across writes")
	}
}

// TestDeleteRemovesChunksAfterACrashGap: a crash in the middle of a
// document's delete can leave its chunks with a gap in their ids, and a
// restart rebuilds the document from what is left. Deleting it again must
// remove every remaining chunk, not stop at the gap.
func TestDeleteRemovesChunksAfterACrashGap(t *testing.T) {
	dataDir := t.TempDir()
	s1, ts1 := newDurableServer(t, dataDir)
	var up struct {
		DocID  string `json:"doc_id"`
		Chunks int    `json:"chunks"`
	}
	content := strings.Repeat(strings.Join(coherenceSentences, " ")+" ", 4)
	doJSON(t, "POST", ts1.URL+"/api/upload", map[string]any{"filename": "long.txt", "content": content}, &up)
	if up.Chunks < 3 {
		t.Fatalf("the document has %d chunks; the gap needs three", up.Chunks)
	}
	if s1.docs.Delete(rag.ChunkID(up.DocID, 1)) != 1 {
		t.Fatal("no middle chunk to delete")
	}
	// No Close: the first server crashed with the gap in place.
	s2, ts2 := newDurableServer(t, dataDir)
	defer s2.Close()
	var del struct {
		Deleted int `json:"deleted_chunks"`
	}
	if resp := doJSON(t, "DELETE", ts2.URL+"/api/documents/"+up.DocID, nil, &del); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	if del.Deleted != up.Chunks-1 || s2.docs.Count() != 0 {
		t.Fatalf("deleted %d of %d chunks, %d remain", del.Deleted, up.Chunks-1, s2.docs.Count())
	}
}

// TestDeleteThatMissesTheLogFails: a delete the write-ahead log did not
// take — the database is closed, so the log refuses it — answers 500
// delete_failed, not 200: a restart would bring the chunks back.
func TestDeleteThatMissesTheLogFails(t *testing.T) {
	s, ts := newDurableServer(t, t.TempDir())
	var up struct {
		DocID string `json:"doc_id"`
	}
	doJSON(t, "POST", ts.URL+"/api/upload", map[string]any{"filename": "facts.txt", "content": "The capital of France is Paris."}, &up)
	if err := s.db.Close(); err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if resp := doJSON(t, "DELETE", ts.URL+"/api/documents/"+up.DocID, nil, &body); resp.StatusCode != http.StatusInternalServerError || body.Error.Code != "delete_failed" {
		t.Fatalf("delete after the log closed = %d %q, want 500 delete_failed", resp.StatusCode, body.Error.Code)
	}
}

// TestConcurrentUploadsGetDistinctIDs: uploads that land together each get
// their own document, never one another's chunks.
func TestConcurrentUploadsGetDistinctIDs(t *testing.T) {
	s, ts := newTestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			doJSON(t, "POST", ts.URL+"/api/upload", map[string]any{"filename": "f.txt", "content": "Paris is the capital of France."}, nil)
		}()
	}
	wg.Wait()
	var docs []struct {
		ID string `json:"id"`
	}
	doJSON(t, "GET", ts.URL+"/api/documents", nil, &docs)
	if len(docs) != 32 || s.docs.Count() != 32 {
		t.Fatalf("32 uploads made %d documents of %d chunks", len(docs), s.docs.Count())
	}
}
