package session

import (
	"sort"
	"strings"
	"unicode/utf8"

	"llmms/internal/embedding"
	"llmms/internal/tokenizer"
)

// Summarize produces an extractive summary of text within a token
// budget. Sentences are scored by cosine similarity of their embedding to
// the centroid of all sentence embeddings (centrality), discounted for
// redundancy against already-selected sentences (a maximal-marginal-
// relevance pass), and emitted in original order so the summary reads
// chronologically.
//
// The paper summarizes with an LLM; an extractive summarizer is the
// deterministic equivalent: it preserves the load-bearing sentences the
// downstream models' context needs, which is the property the session
// layer depends on.
func Summarize(text string, maxTokens int, tok *tokenizer.Tokenizer) string {
	if tok == nil {
		tok = tokenizer.Default()
	}
	if maxTokens <= 0 {
		maxTokens = 160
	}
	sentences := splitSummaryUnits(text)
	if len(sentences) == 0 {
		return ""
	}
	if tok.Count(text) <= maxTokens {
		return strings.TrimSpace(text)
	}

	enc := embedding.Default()
	vecs := make([]embedding.Vector, len(sentences))
	accs := make([]*embedding.Accumulator, len(sentences))
	for i, s := range sentences {
		vecs[i], accs[i] = embedding.Borrow(enc, s)
	}
	defer func() {
		for _, acc := range accs {
			acc.Release()
		}
	}()
	centroid := embedding.Centroid(vecs)

	type scored struct {
		idx        int
		centrality float64
	}
	ranked := make([]scored, len(sentences))
	for i := range sentences {
		ranked[i] = scored{idx: i, centrality: embedding.Cosine(vecs[i], centroid)}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].centrality > ranked[j].centrality })

	// Greedy MMR selection under the token budget.
	const redundancyPenalty = 0.7
	var selected []int
	budget := maxTokens
	for _, cand := range ranked {
		cost := tok.Count(sentences[cand.idx])
		if cost > budget {
			continue
		}
		// Skip near-duplicates of already selected sentences.
		dup := false
		for _, sel := range selected {
			if embedding.Cosine(vecs[cand.idx], vecs[sel]) > redundancyPenalty {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		selected = append(selected, cand.idx)
		budget -= cost
		if budget <= 0 {
			break
		}
	}
	if len(selected) == 0 {
		// Every sentence is over budget; hard-truncate the most central
		// one so the summary is never empty. The cut is the last end of
		// one of its first maxTokens tokens that is also the end of a
		// rune, so no multi-byte character is split; when no rune ends
		// within the budget, the cut is the end of the first rune.
		best := sentences[ranked[0].idx]
		cut, end, runeEnd := 0, 0, 0
		for i, t := range tok.Encode(best) {
			if i >= maxTokens && cut > 0 {
				break
			}
			end += len(tok.DecodeOne(t))
			for runeEnd < end {
				_, size := utf8.DecodeRuneInString(best[runeEnd:])
				runeEnd += size
			}
			if runeEnd == end {
				cut = end
			}
		}
		return strings.TrimSpace(best[:cut])
	}
	sort.Ints(selected)
	parts := make([]string, len(selected))
	for i, idx := range selected {
		parts[i] = sentences[idx]
	}
	return strings.Join(parts, " ")
}

// splitSummaryUnits breaks conversation text into summarizable units:
// lines are the primary boundary (each turn is one line in the store's
// material), and long lines split further on sentence punctuation.
func splitSummaryUnits(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var cur strings.Builder
		for _, r := range line {
			cur.WriteRune(r)
			if r == '.' || r == '!' || r == '?' {
				if s := strings.TrimSpace(cur.String()); s != "" {
					out = append(out, s)
				}
				cur.Reset()
			}
		}
		if s := strings.TrimSpace(cur.String()); s != "" {
			out = append(out, s)
		}
	}
	return out
}
