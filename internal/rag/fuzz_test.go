package rag

import (
	"strings"
	"testing"
)

// FuzzParsePDF asserts the PDF text extractor never panics and never
// fabricates success on garbage: any returned text must come with a nil
// error, and errors must come with empty text.
func FuzzParsePDF(f *testing.F) {
	f.Add([]byte("%PDF-1.4\nBT (Hello) Tj ET"))
	f.Add([]byte("%PDF-1.4\nBT (nested \\(parens\\)) Tj ET"))
	f.Add([]byte("%PDF-1.4\nstream FlateDecode"))
	f.Add([]byte("not a pdf at all"))
	f.Add([]byte("%PDF\nBT (unclosed"))
	f.Add([]byte("%PDF\nBT"))
	f.Fuzz(func(t *testing.T, data []byte) {
		text, err := parsePDF(data)
		if err != nil && text != "" {
			t.Fatalf("error with non-empty text: %q, %v", text, err)
		}
	})
}

// FuzzSplit asserts the chunker conserves sentences on arbitrary text:
// every sentence the splitter produces appears in some chunk, and chunk
// indexes are consecutive.
func FuzzSplit(f *testing.F) {
	f.Add("One. Two! Three?", 20)
	f.Add("No terminal punctuation at all", 8)
	f.Add("Ubuntu 24.04 with CUDA 12.6. Next sentence.", 16)
	f.Add("", 10)
	f.Fuzz(func(t *testing.T, text string, maxTokens int) {
		if maxTokens < 1 || maxTokens > 256 {
			maxTokens = 32
		}
		if len(text) > 2000 {
			text = text[:2000]
		}
		chunks := split(text, maxTokens)
		joined := ""
		for i, c := range chunks {
			if c.Index != i {
				t.Fatalf("chunk index %d at position %d", c.Index, i)
			}
			joined += c.Text + " "
		}
		for _, s := range SplitSentences(text) {
			if !strings.Contains(joined, s) {
				t.Fatalf("sentence lost: %q\nchunks: %q", s, joined)
			}
		}
	})
}
