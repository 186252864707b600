// Package rag implements the retrieval-augmented generation pipeline of
// LLM-MS: document parsing, sentence-aware chunking, ingestion into the
// vector database, top-k retrieval, and prompt construction.
//
// The paper's pipeline (§6.2) parses uploaded files, segments them into
// semantically coherent chunks, embeds chunks and queries with the same
// encoder, retrieves the top-k chunks by cosine similarity from ChromaDB,
// and prepends them to the model prompt. This package reproduces each
// stage; the prompt layout it emits ("Context:" / "Question:" / "Answer:"
// sections) is the convention the inference engine parses back out.
package rag

import (
	"fmt"
	"path/filepath"
	"strings"

	"llmms/internal/tokenizer"
	"llmms/internal/vectordb"
)

// Chunk is one retrievable document fragment.
type Chunk struct {
	// Text is the fragment content.
	Text string
	// Index is the fragment's position within its source document.
	Index int
}

// ChunkOptions configures an Ingestor. It has no fields: chunks are
// chunkTokens long with one sentence of overlap.
type ChunkOptions struct{}

// chunkTokens caps each chunk's token count (tokenizer.Default's tokens).
const chunkTokens = 128

// split segments text into chunks of at most maxTokens tokens: sentences
// are accumulated until the cap, and each new chunk re-opens with the
// previous chunk's last sentence, so answers spanning a boundary stay
// retrievable. The overlap is dropped when it would push the incoming
// sentence past the cap, and a sentence longer than the cap by itself
// becomes its own chunk rather than being lost.
func split(text string, maxTokens int) []Chunk {
	tok := tokenizer.Default()
	sentences := SplitSentences(text)
	if len(sentences) == 0 {
		return nil
	}
	var chunks []Chunk
	var cur []string
	curTokens := 0
	overlapLen := 0 // leading sentences in cur carried over from the previous chunk
	flush := func() {
		chunks = append(chunks, Chunk{Text: strings.Join(cur, " "), Index: len(chunks)})
		cur = append([]string(nil), cur[len(cur)-1:]...)
		overlapLen = len(cur)
		curTokens = 0
		for _, s := range cur {
			curTokens += tok.Count(s)
		}
	}
	for _, s := range sentences {
		n := tok.Count(s)
		if len(cur) > overlapLen && curTokens+n > maxTokens {
			flush()
		}
		if len(cur) == overlapLen && overlapLen > 0 && curTokens+n > maxTokens {
			// The overlap alone would push this sentence past the cap.
			cur = cur[:0]
			overlapLen = 0
			curTokens = 0
		}
		cur = append(cur, s)
		curTokens += n
	}
	if len(cur) > overlapLen {
		chunks = append(chunks, Chunk{Text: strings.Join(cur, " "), Index: len(chunks)})
	}
	return chunks
}

// SplitSentences breaks text into trimmed sentences on ., !, ? and
// blank lines. A period flanked by digits ("Ubuntu 24.04", "v0.4.5") is
// part of a number, not a sentence boundary.
func SplitSentences(text string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		s := strings.TrimSpace(cur.String())
		if s != "" {
			out = append(out, s)
		}
		cur.Reset()
	}
	prevNewline := false
	runes := []rune(text)
	for i, r := range runes {
		switch r {
		case '.':
			cur.WriteRune(r)
			if !digitFlanked(runes, i) {
				flush()
			}
			prevNewline = false
		case '!', '?':
			cur.WriteRune(r)
			flush()
			prevNewline = false
		case '\n':
			if prevNewline {
				flush()
			} else {
				cur.WriteByte(' ')
			}
			prevNewline = true
		default:
			cur.WriteRune(r)
			prevNewline = false
		}
	}
	flush()
	return out
}

// digitFlanked reports whether the rune at i sits between two digits.
func digitFlanked(runes []rune, i int) bool {
	return i > 0 && i+1 < len(runes) &&
		runes[i-1] >= '0' && runes[i-1] <= '9' &&
		runes[i+1] >= '0' && runes[i+1] <= '9'
}

// Ingestor writes parsed, chunked documents into a vector collection.
type Ingestor struct {
	col       *vectordb.Collection
	maxTokens int // chunkTokens; in-package tests shorten it
}

// NewIngestor binds an ingestor to a collection.
func NewIngestor(col *vectordb.Collection, _ ChunkOptions) *Ingestor {
	return &Ingestor{col: col, maxTokens: chunkTokens}
}

// IngestFile parses raw file bytes by extension (.txt, .md, .pdf),
// chunks the text, and upserts every chunk with source metadata. It
// returns the number of chunks stored.
func (in *Ingestor) IngestFile(docID, filename string, data []byte) (int, error) {
	text, err := Parse(filename, data)
	if err != nil {
		return 0, err
	}
	return in.IngestText(docID, filename, text)
}

// IngestText chunks pre-extracted text and upserts the chunks.
func (in *Ingestor) IngestText(docID, source, text string) (int, error) {
	if strings.TrimSpace(docID) == "" {
		return 0, fmt.Errorf("rag: empty document id")
	}
	chunks := split(text, in.maxTokens)
	if len(chunks) == 0 {
		return 0, fmt.Errorf("rag: document %q produced no chunks", docID)
	}
	docs := make([]vectordb.Document, len(chunks))
	for i, c := range chunks {
		docs[i] = vectordb.Document{
			ID:   ChunkID(docID, c.Index),
			Text: c.Text,
			Metadata: vectordb.Metadata{
				"doc_id": docID,
				"source": source,
				"chunk":  c.Index,
			},
		}
	}
	if err := in.col.Upsert(docs...); err != nil {
		return 0, err
	}
	return len(chunks), nil
}

// ChunkID is the id of a document's i-th chunk in the collection.
func ChunkID(docID string, i int) string { return fmt.Sprintf("%s#%d", docID, i) }

// DeleteDocument removes every chunk of a previously ingested document,
// found by its doc_id whatever ids a crash left, in one write (one WAL
// record), and returns how many chunks were deleted. An error means the
// delete did not reach the log: the chunks are gone from memory, but a
// restart brings them back.
func (in *Ingestor) DeleteDocument(docID string) (int, error) {
	return in.col.DeleteWhere(vectordb.Metadata{"doc_id": docID})
}

// Retrieve returns the top-k chunks for a query, optionally restricted to
// one document id (empty means all documents).
func Retrieve(col *vectordb.Collection, query string, topK int, docID string) ([]vectordb.Result, error) {
	req := vectordb.QueryRequest{Text: query, TopK: topK}
	if docID != "" {
		req.Where = vectordb.Metadata{"doc_id": docID}
	}
	return col.Query(req)
}

// PromptParts is the material BuildPrompt assembles.
type PromptParts struct {
	// Summary is the condensed earlier-conversation context (may be "").
	Summary string
	// Chunks are the retrieved context fragments, best first.
	Chunks []string
	// Question is the user's query.
	Question string
}

// BuildPrompt composes the final model prompt in the layout the engine
// parses: optional conversation summary, optional retrieved context, then
// the question and an answer cue.
func BuildPrompt(p PromptParts) string {
	var b strings.Builder
	if s := strings.TrimSpace(p.Summary); s != "" {
		b.WriteString("Summary of earlier conversation:\n")
		b.WriteString(s)
		b.WriteString("\n\n")
	}
	if len(p.Chunks) > 0 {
		b.WriteString("Context:\n")
		for _, c := range p.Chunks {
			b.WriteString(strings.TrimSpace(c))
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	b.WriteString("Question: ")
	b.WriteString(strings.TrimSpace(p.Question))
	b.WriteString("\nAnswer:")
	return b.String()
}

// Parse extracts plain text from raw file bytes based on the filename
// extension. Supported: .txt, .text, .md, .markdown, .pdf (text-object
// extraction for uncompressed PDFs).
func Parse(filename string, data []byte) (string, error) {
	switch strings.ToLower(filepath.Ext(filename)) {
	case ".txt", ".text", "":
		return string(data), nil
	case ".md", ".markdown":
		return stripMarkdown(string(data)), nil
	case ".pdf":
		return parsePDF(data)
	default:
		return "", fmt.Errorf("rag: unsupported file type %q", filepath.Ext(filename))
	}
}

// stripMarkdown removes common Markdown syntax, keeping the prose.
func stripMarkdown(s string) string {
	var out []string
	inFence := false
	for _, line := range strings.Split(s, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		trimmed = strings.TrimLeft(trimmed, "#> ")
		trimmed = strings.TrimPrefix(trimmed, "- ")
		trimmed = strings.TrimPrefix(trimmed, "* ")
		trimmed = strings.ReplaceAll(trimmed, "**", "")
		trimmed = strings.ReplaceAll(trimmed, "__", "")
		trimmed = strings.ReplaceAll(trimmed, "`", "")
		out = append(out, trimmed)
	}
	return strings.Join(out, "\n")
}

// parsePDF extracts text from uncompressed PDF content streams: the
// string operands of Tj and TJ operators inside BT/ET text blocks.
// Compressed streams (FlateDecode) are out of scope and reported as such.
func parsePDF(data []byte) (string, error) {
	s := string(data)
	if !strings.HasPrefix(s, "%PDF") {
		return "", fmt.Errorf("rag: not a PDF file")
	}
	var b strings.Builder
	rest := s
	found := false
	for {
		bt := strings.Index(rest, "BT")
		if bt < 0 {
			break
		}
		et := strings.Index(rest[bt:], "ET")
		if et < 0 {
			break
		}
		block := rest[bt : bt+et]
		rest = rest[bt+et+2:]
		for _, lit := range pdfStringLiterals(block) {
			b.WriteString(lit)
			b.WriteString(" ")
		}
		found = true
	}
	if !found {
		if strings.Contains(s, "FlateDecode") {
			return "", fmt.Errorf("rag: compressed PDF streams are not supported; export the PDF as text")
		}
		return "", fmt.Errorf("rag: no extractable text objects found in PDF")
	}
	return strings.TrimSpace(b.String()), nil
}

// pdfStringLiterals scans a content-stream block for (...) literals,
// handling \-escapes and nested parentheses.
func pdfStringLiterals(block string) []string {
	var lits []string
	for i := 0; i < len(block); i++ {
		if block[i] != '(' {
			continue
		}
		depth := 1
		var cur strings.Builder
		j := i + 1
		for ; j < len(block) && depth > 0; j++ {
			c := block[j]
			switch c {
			case '\\':
				if j+1 < len(block) {
					j++
					switch block[j] {
					case 'n':
						cur.WriteByte('\n')
					case 't':
						cur.WriteByte('\t')
					case '(', ')', '\\':
						cur.WriteByte(block[j])
					}
				}
			case '(':
				depth++
				cur.WriteByte(c)
			case ')':
				depth--
				if depth > 0 {
					cur.WriteByte(c)
				}
			default:
				cur.WriteByte(c)
			}
		}
		if cur.Len() > 0 {
			lits = append(lits, cur.String())
		}
		i = j - 1
	}
	return lits
}
