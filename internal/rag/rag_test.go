package rag

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"llmms/internal/tokenizer"
	"llmms/internal/vectordb"
)

const sampleText = `The Data Management Systems Laboratory operates a virtual server.
The server has an Intel Xeon Gold processor with forty virtual cores.
It is provisioned with ninety eight gigabytes of memory.
A dedicated NVIDIA Tesla V100 GPU with thirty two gigabytes of VRAM accelerates inference.
Storage includes a one terabyte NVMe solid state drive.
The platform uses Ollama for model serving and token streaming.
ChromaDB provides the vector database for semantic retrieval.
Flask implements the backend web server logic.
The system was evaluated on the TruthfulQA benchmark.
Orchestration strategies include OUA and MAB algorithms.`

func TestSplitSentences(t *testing.T) {
	got := SplitSentences("One. Two! Three?\n\nFour five")
	want := []string{"One.", "Two!", "Three?", "Four five"}
	if len(got) != len(want) {
		t.Fatalf("SplitSentences = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sentence %d = %q, want %q", i, got[i], want[i])
		}
	}
	if s := SplitSentences(""); len(s) != 0 {
		t.Fatalf("empty text produced %v", s)
	}
}

func TestSplitRespectsTokenCap(t *testing.T) {
	tok := tokenizer.Default()
	chunks := split(sampleText, 40)
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(chunks))
	}
	for _, c := range chunks {
		// A chunk may exceed the cap only when it is one sentence that is
		// oversized by itself (the chunker never splits inside a sentence).
		if n := tok.Count(c.Text); n > 40 {
			if sc := len(SplitSentences(c.Text)); sc != 1 {
				t.Fatalf("chunk %d has %d tokens (> 40) across %d sentences: %q", c.Index, n, sc, c.Text)
			}
		}
	}
	for i, c := range chunks {
		if c.Index != i {
			t.Fatalf("chunk index %d != position %d", c.Index, i)
		}
	}
}

func TestSplitOverlap(t *testing.T) {
	// Cap chosen so the overlap sentence plus the next sentence always
	// fits (the longest adjacent pair in sampleText is 86 tokens); the
	// overlap must then be carried into every subsequent chunk.
	chunks := split(sampleText, 120)
	if len(chunks) < 2 {
		t.Fatalf("need 2+ chunks, got %d", len(chunks))
	}
	// Each chunk after the first must start with the previous chunk's
	// final sentence.
	for i := 1; i < len(chunks); i++ {
		prev := SplitSentences(chunks[i-1].Text)
		lastSentence := prev[len(prev)-1]
		if !strings.HasPrefix(chunks[i].Text, lastSentence) {
			t.Fatalf("chunk %d does not begin with overlap %q:\n%q", i, lastSentence, chunks[i].Text)
		}
	}
}

func TestSplitCoversAllSentences(t *testing.T) {
	chunks := split(sampleText, 40)
	joined := ""
	for _, c := range chunks {
		joined += c.Text + " "
	}
	for _, s := range SplitSentences(sampleText) {
		if !strings.Contains(joined, s) {
			t.Fatalf("sentence lost during chunking: %q", s)
		}
	}
}

func TestSplitOversizedSentence(t *testing.T) {
	long := strings.Repeat("supercalifragilistic expialidocious vocabulary ", 60) + "."
	chunks := split(long, 30)
	if len(chunks) != 1 {
		t.Fatalf("oversized sentence should be one chunk, got %d", len(chunks))
	}
}

func TestSplitNeverLosesWordsProperty(t *testing.T) {
	f := func(words []string) bool {
		var b strings.Builder
		for i, w := range words {
			b.WriteString(strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' {
					return r
				}
				return 'x'
			}, strings.ToLower(w)))
			if i%5 == 4 {
				b.WriteString(". ")
			} else {
				b.WriteString(" ")
			}
		}
		text := b.String()
		chunks := split(text, 20)
		joined := ""
		for _, c := range chunks {
			joined += c.Text + " "
		}
		for _, s := range SplitSentences(text) {
			if !strings.Contains(joined, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func newCollection(t *testing.T) *vectordb.Collection {
	t.Helper()
	db := vectordb.New()
	col, err := db.CreateCollection("docs", vectordb.CollectionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func TestIngestAndRetrieve(t *testing.T) {
	col := newCollection(t)
	in := NewIngestor(col, ChunkOptions{})
	in.maxTokens = 40
	n, err := in.IngestText("doc1", "specs.txt", sampleText)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 || col.Count() != n {
		t.Fatalf("ingested %d chunks, collection has %d", n, col.Count())
	}
	res, err := Retrieve(col, "which GPU accelerates inference?", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || !strings.Contains(res[0].Text, "V100") {
		t.Fatalf("retrieval missed the GPU chunk: %+v", res)
	}
	if res[0].Metadata["doc_id"] != "doc1" || res[0].Metadata["source"] != "specs.txt" {
		t.Fatalf("chunk metadata wrong: %+v", res[0].Metadata)
	}
}

func TestRetrieveScopedToDocument(t *testing.T) {
	col := newCollection(t)
	in := NewIngestor(col, ChunkOptions{})
	in.maxTokens = 60
	if _, err := in.IngestText("a", "a.txt", "The GPU in server A is a Tesla V100."); err != nil {
		t.Fatal(err)
	}
	if _, err := in.IngestText("b", "b.txt", "The GPU in server B is an A100."); err != nil {
		t.Fatal(err)
	}
	res, err := Retrieve(col, "what GPU does the server have", 5, "b")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Metadata["doc_id"] != "b" {
			t.Fatalf("doc filter leaked: %+v", r)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	col := newCollection(t)
	in := NewIngestor(col, ChunkOptions{})
	if _, err := in.IngestText("", "x.txt", "text."); err == nil {
		t.Fatal("expected error for empty doc id")
	}
	if _, err := in.IngestText("d", "x.txt", "   "); err == nil {
		t.Fatal("expected error for empty document")
	}
}

func TestDeleteDocument(t *testing.T) {
	col := newCollection(t)
	in := NewIngestor(col, ChunkOptions{})
	in.maxTokens = 30
	n, err := in.IngestText("doc1", "a.txt", sampleText)
	if err != nil {
		t.Fatal(err)
	}
	if removed, err := in.DeleteDocument("doc1"); err != nil || removed != n {
		t.Fatalf("deleted %d chunks (%v), want %d", removed, err, n)
	}
	if col.Count() != 0 {
		t.Fatalf("%d chunks remain", col.Count())
	}
	if removed, err := in.DeleteDocument("doc1"); err != nil || removed != 0 {
		t.Fatalf("second delete removed %d (%v)", removed, err)
	}
}

func TestReingestReplaces(t *testing.T) {
	col := newCollection(t)
	in := NewIngestor(col, ChunkOptions{})
	in.maxTokens = 30
	if _, err := in.IngestText("doc1", "a.txt", sampleText); err != nil {
		t.Fatal(err)
	}
	// Re-ingest shorter content under the same id; stale tail chunks are
	// acceptable to remain (upsert semantics), but chunk 0 must be new.
	if _, err := in.IngestText("doc1", "a.txt", "Only one short sentence."); err != nil {
		t.Fatal(err)
	}
	got := col.Get("doc1#0")
	if len(got) != 1 || !strings.Contains(got[0].Text, "short sentence") {
		t.Fatalf("re-ingest did not replace chunk 0: %+v", got)
	}
}

func TestBuildPrompt(t *testing.T) {
	p := BuildPrompt(PromptParts{
		Summary:  "User asked about GPUs earlier.",
		Chunks:   []string{"The server uses a Tesla V100.", "It has 32 GB of VRAM."},
		Question: "How much VRAM does it have?",
	})
	for _, want := range []string{
		"Summary of earlier conversation:",
		"Context:",
		"Tesla V100",
		"Question: How much VRAM does it have?",
		"Answer:",
	} {
		if !strings.Contains(p, want) {
			t.Fatalf("prompt missing %q:\n%s", want, p)
		}
	}
	bare := BuildPrompt(PromptParts{Question: "Hello?"})
	if strings.Contains(bare, "Context:") || strings.Contains(bare, "Summary") {
		t.Fatalf("bare prompt has spurious sections:\n%s", bare)
	}
}

func TestParseTxtAndMarkdown(t *testing.T) {
	txt, err := Parse("a.txt", []byte("plain text"))
	if err != nil || txt != "plain text" {
		t.Fatalf("txt parse: %q %v", txt, err)
	}
	md := "# Title\n\nSome **bold** prose.\n\n```go\ncode to drop\n```\n\n- item one\n> quoted line\n"
	got, err := Parse("doc.md", []byte(md))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got, "code to drop") || strings.Contains(got, "**") || strings.Contains(got, "#") {
		t.Fatalf("markdown not stripped: %q", got)
	}
	if !strings.Contains(got, "Some bold prose.") || !strings.Contains(got, "item one") {
		t.Fatalf("markdown prose lost: %q", got)
	}
	if _, err := Parse("a.docx", []byte("x")); err == nil {
		t.Fatal("expected error for unsupported extension")
	}
}

func TestParsePDF(t *testing.T) {
	pdf := "%PDF-1.4\n1 0 obj\nstream\nBT /F1 12 Tf (Hello from a) Tj (PDF \\(page one\\)) Tj ET\nendstream\nendobj\n"
	got, err := Parse("doc.pdf", []byte(pdf))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "Hello from a") || !strings.Contains(got, "PDF (page one)") {
		t.Fatalf("pdf text extraction: %q", got)
	}
	if _, err := Parse("doc.pdf", []byte("not a pdf")); err == nil {
		t.Fatal("expected error for non-PDF bytes")
	}
	if _, err := Parse("doc.pdf", []byte("%PDF-1.4\nstream FlateDecode compressed")); err == nil {
		t.Fatal("expected error for compressed PDF")
	}
}

func TestEndToEndRAGPrompt(t *testing.T) {
	col := newCollection(t)
	in := NewIngestor(col, ChunkOptions{})
	in.maxTokens = 40
	if _, err := in.IngestText("specs", "specs.txt", sampleText); err != nil {
		t.Fatal(err)
	}
	res, err := Retrieve(col, "how many virtual cores does the processor have", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	var chunks []string
	for _, r := range res {
		chunks = append(chunks, r.Text)
	}
	prompt := BuildPrompt(PromptParts{Chunks: chunks, Question: "How many virtual cores?"})
	if !strings.Contains(prompt, "forty virtual cores") {
		t.Fatalf("retrieved context missing from prompt:\n%s", prompt)
	}
}

func BenchmarkSplit(b *testing.B) {
	text := strings.Repeat(sampleText+" ", 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		split(text, 64)
	}
}

func BenchmarkIngest(b *testing.B) {
	db := vectordb.New()
	col, _ := db.CreateCollection("bench", vectordb.CollectionConfig{})
	in := NewIngestor(col, ChunkOptions{})
	in.maxTokens = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = in.IngestText(fmt.Sprintf("doc%d", i), "bench.txt", sampleText)
	}
}
