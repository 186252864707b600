package tokenizer

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unicode"
	"unicode/utf8"

	"llmms/internal/truthfulqa"
)

// This file keeps the tokenizer's original, allocation-heavy inference
// path — pretokenize into a []string, merge each word through the
// ranks/merged maps — as the reference the in-place walker, the pooled
// merge and the pair table are tested against.

// pretokenize splits text into words: runs of letters/digits, runs of
// spaces attached to the following word GPT-2 style, and individual
// punctuation runes. It walks the string byte-wise and appends the
// original bytes — never re-encoded runes — so invalid UTF-8 survives
// unchanged.
func pretokenize(text string) []string {
	var words []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			words = append(words, cur.String())
			cur.Reset()
		}
	}
	pendingSpace := false
	for i := 0; i < len(text); {
		r, size := utf8.DecodeRuneInString(text[i:])
		raw := text[i : i+size]
		i += size
		switch {
		case r == ' ':
			flush()
			if pendingSpace {
				words = append(words, " ")
			}
			pendingSpace = true
		case (r != utf8.RuneError || size > 1) && (unicode.IsLetter(r) || unicode.IsDigit(r)):
			if pendingSpace && cur.Len() == 0 {
				cur.WriteByte(' ')
				pendingSpace = false
			}
			cur.WriteString(raw)
		default:
			flush()
			if pendingSpace {
				words = append(words, " ")
				pendingSpace = false
			}
			words = append(words, raw)
		}
	}
	if pendingSpace {
		flush()
		words = append(words, " ")
	}
	flush()
	return words
}

// referenceEncodeWord applies learned merges to one pre-token through the
// training-side maps, lowest rank first.
func (t *Tokenizer) referenceEncodeWord(b []byte) []Token {
	seq := bytesToTokens(b)
	for len(seq) > 1 {
		bestRank := -1
		var bestPair pair
		for i := 0; i+1 < len(seq); i++ {
			p := pair{seq[i], seq[i+1]}
			if r, ok := t.ranks[p]; ok && (bestRank == -1 || r < bestRank) {
				bestRank = r
				bestPair = p
			}
		}
		if bestRank == -1 {
			break
		}
		seq = applyMerge(seq, bestPair, t.merged[bestPair])
	}
	return seq
}

func (t *Tokenizer) referenceEncode(text string) []Token {
	var out []Token
	for _, w := range pretokenize(text) {
		out = append(out, t.referenceEncodeWord([]byte(w))...)
	}
	return out
}

// walk collects the walker's pre-tokens.
func walk(text string) []string {
	var words []string
	for p := (pretokens{text: text}); ; {
		w, ok := p.next()
		if !ok {
			return words
		}
		words = append(words, w)
	}
}

// unmemoized returns a tokenizer with t's merges and an empty memo.
func unmemoized(t *Tokenizer) *Tokenizer {
	return &Tokenizer{ranks: t.ranks, merged: t.merged, pairs: t.pairs, bytesOf: t.bytesOf, texts: t.texts, vocabSize: t.vocabSize}
}

// emptied holds, per tokenizer checked against the reference, one copy
// for each inference entry point, whose memo checkAgainstReference
// empties before every input. Tests call it from one goroutine.
var emptied = map[*Tokenizer]*[3]*Tokenizer{}

// checkAgainstReference asserts the three inference entry points agree
// with the reference on s: each on tok, whose memo is shared with the
// other inputs, and each twice on a tokenizer of its own whose memo
// starts empty — a miss, then a hit.
func checkAgainstReference(t testing.TB, tok *Tokenizer, s string) {
	t.Helper()
	want := tok.referenceEncode(s)
	fresh := emptied[tok]
	if fresh == nil {
		fresh = &[3]*Tokenizer{unmemoized(tok), unmemoized(tok), unmemoized(tok)}
		emptied[tok] = fresh
	}
	for _, f := range fresh {
		clear(f.memo)
		f.memoTokens = f.memoTokens[:0]
	}
	for _, pass := range []struct {
		name  string
		tok   [3]*Tokenizer
		times int
	}{{"memo", [3]*Tokenizer{tok, tok, tok}, 1}, {"fresh memo", *fresh, 2}} {
		for i := 0; i < pass.times; i++ {
			got := pass.tok[0].Encode(s)
			if len(got) != len(want) {
				t.Fatalf("%s, call %d: Encode(%q) has %d tokens, reference %d", pass.name, i, s, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s, call %d: Encode(%q)[%d] = %d, reference %d", pass.name, i, s, j, got[j], want[j])
				}
			}
			ids := pass.tok[1].AppendIDs([]int{-1}, s)
			if len(ids) != len(want)+1 || ids[0] != -1 {
				t.Fatalf("%s, call %d: AppendIDs(%q) appended %d ids to a slice of 1, want %d", pass.name, i, s, len(ids)-1, len(want))
			}
			for j := range want {
				if ids[j+1] != int(want[j]) {
					t.Fatalf("%s, call %d: AppendIDs(%q)[%d] = %d, reference %d", pass.name, i, s, j, ids[j+1], want[j])
				}
			}
			if n := pass.tok[2].Count(s); n != len(want) {
				t.Fatalf("%s, call %d: Count(%q) = %d, reference has %d tokens", pass.name, i, s, n, len(want))
			}
		}
	}
}

// referenceInputs is what the equivalence tests run over: the training
// corpus line by line and whole, every answer of the knowledge base the
// engine verbalizes, and strings built to stress the walker — space
// runs, multi-byte letters, punctuation and invalid UTF-8.
func referenceInputs() []string {
	inputs := []string{
		"", " ", "  ", "   a", "a   ", " a b  c   d ", "a,b", "a , b", "!?", " !", "! ", "\n \n", "\t\ttabs\tand spaces  ",
		"unicode: naïve café übermäßig 北京 🦊", "In Brasília the złoty is no legal tender, nor in São Paulo or Malmö.",
		"\x00\xff\xfe binary bytes", "a\xc3", "\xc3a \xc3 a", " \xad", "\xe2\x82", "٣٤٥ digits ５６", "ǅ titlecase",
		strings.Repeat("antidisestablishmentarianism", 9), strings.Repeat(" ", 70), seedCorpus,
	}
	inputs = append(inputs, strings.Split(seedCorpus, "\n")...)
	for _, it := range truthfulqa.Generate(817, 1) {
		inputs = append(inputs, it.Question, it.BestAnswer)
		inputs = append(inputs, it.CorrectAnswers...)
		inputs = append(inputs, it.IncorrectAnswers...)
	}
	return inputs
}

// randomBytes draws a string from an alphabet weighted toward what
// decides pre-token boundaries: spaces, letters, punctuation, halves of
// multi-byte characters.
func randomBytes(rng *rand.Rand) string {
	const alphabet = "   aeiostn THE,.!?\n\t0159\xc3\xad\xc5\x82\xe5\x8c\x97\xf0\x9f\xa6\x8a\xff\x00"
	b := make([]byte, rng.Intn(48))
	for i := range b {
		if rng.Intn(8) == 0 {
			b[i] = byte(rng.Intn(256))
		} else {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
	}
	return string(b)
}

// TestEncodeMatchesReference is the equivalence property of the rewrite:
// Encode and AppendIDs equal the reference token for token, Count equals
// its length, and the walker yields the reference's pre-tokens.
func TestEncodeMatchesReference(t *testing.T) {
	tok := Default()
	inputs := referenceInputs()
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 5000; i++ {
		inputs = append(inputs, randomBytes(rng))
	}
	for _, s := range inputs {
		checkAgainstReference(t, tok, s)
		got, want := walk(s), pretokenize(s)
		if len(got) != len(want) {
			t.Fatalf("walker cut %q into %q, reference %q", s, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("walker cut %q into %q, reference %q", s, got, want)
			}
		}
	}
	// A byte-only tokenizer has an empty pair table.
	for _, s := range inputs[:40] {
		checkAgainstReference(t, New(), s)
	}
}

// TestCountAllocatesNothing pins the point of counting in place: once
// the memo holds the prompt's words, and once the memo is full and the
// words are merged anew on every call.
func TestCountAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	prompt := benchPrompt()
	for name, tok := range map[string]*Tokenizer{"memo hit": unmemoized(Default()), "memo full": fullMemo(t)} {
		tok.Count(prompt) // warm the scratch pool and the memo
		if name == "memo hit" {
			for p := (pretokens{text: prompt}); ; {
				w, ok := p.next()
				if !ok {
					break
				}
				if _, hit := tok.memo[w]; !hit && len(w) > 1 {
					t.Fatalf("the memo does not hold the prompt's word %q", w)
				}
			}
		}
		if n := testing.AllocsPerRun(100, func() { tok.Count(prompt) }); n != 0 {
			t.Fatalf("%s: Count allocates %v times per call, want 0", name, n)
		}
		ids := make([]int, 0, len(prompt))
		if n := testing.AllocsPerRun(100, func() { ids = tok.AppendIDs(ids[:0], prompt) }); n != 0 {
			t.Fatalf("%s: AppendIDs into a large enough slice allocates %v times per call, want 0", name, n)
		}
	}
}

// floodWords returns n distinct pre-tokens of two or more bytes that the
// benchmark prompt does not contain.
func floodWords(n int) []string {
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf(" zq%x", i)
	}
	return words
}

// fullMemo returns a tokenizer whose memo holds memoCap flood words.
func fullMemo(t testing.TB) *Tokenizer {
	tok := unmemoized(Default())
	tok.Count(strings.Join(floodWords(memoCap), ""))
	if len(tok.memo) != memoCap {
		t.Fatalf("flooded memo holds %d words, want %d", len(tok.memo), memoCap)
	}
	return tok
}

// TestMemoIsBounded floods a tokenizer's memo past its cap: it stops at
// memoCap words, takes no word longer than maxMemoWord bytes, indexes
// exactly the tokens it stores, and every answer, the words it holds and
// the words it turned away, still equals the reference.
func TestMemoIsBounded(t *testing.T) {
	tok := fullMemo(t)
	long := " " + strings.Repeat("antidisestablishment", 2)
	inputs := append(floodWords(memoCap+500), long, benchPrompt())
	for _, s := range inputs[memoCap-100:] {
		checkAgainstReference(t, tok, s)
	}
	if len(tok.memo) != memoCap {
		t.Fatalf("memo holds %d words after the flood, want its cap %d", len(tok.memo), memoCap)
	}
	fresh := unmemoized(Default())
	fresh.Count(long + ", " + benchPrompt())
	if _, held := fresh.memo[long]; held || len(long) <= maxMemoWord {
		t.Fatalf("memo with room took %q, %d bytes > maxMemoWord %d", long, len(long), maxMemoWord)
	}
	total := 0
	for w, v := range tok.memo {
		n := int(v & memoLenMask)
		total += n
		want := tok.referenceEncodeWord([]byte(w))
		if n != len(want) {
			t.Fatalf("memo holds %d tokens for %q, reference %d", n, w, len(want))
		}
		for i, id := range tok.memoTokens[v>>memoLenBits:][:n] {
			if Token(id) != want[i] {
				t.Fatalf("memo's token %d for %q is %d, reference %d", i, w, id, want[i])
			}
		}
	}
	if total != len(tok.memoTokens) {
		t.Fatalf("memo indexes %d tokens but stores %d", total, len(tok.memoTokens))
	}
}

// TestConcurrentEncodeAndCount shares one tokenizer, its memo and its
// scratch pool between goroutines, starting from an empty memo so that
// they race to insert the same words; under -race it is the memo's and
// the pool's data-race test.
func TestConcurrentEncodeAndCount(t *testing.T) {
	tok := unmemoized(Default())
	inputs := referenceInputs()[:200]
	want := make([]int, len(inputs))
	for i, s := range inputs {
		want[i] = len(tok.referenceEncode(s))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range inputs {
				s := inputs[(i+g*25)%len(inputs)]
				n := want[(i+g*25)%len(inputs)]
				if got := tok.Count(s); got != n {
					t.Errorf("Count(%q) = %d, want %d", s, got, n)
				}
				if got := tok.Encode(s); len(got) != n || tok.Decode(got) != s {
					t.Errorf("Encode(%q) = %d tokens decoding to %q, want %d", s, len(got), tok.Decode(got), n)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPairTableMatchesMaps checks the table the inference path reads
// against the maps training filled: every trained pair maps to its
// merged id, whose order is rank order, and untrained pairs miss.
func TestPairTableMatchesMaps(t *testing.T) {
	tok := Default()
	if len(tok.merged) == 0 || len(tok.merged) != len(tok.ranks) {
		t.Fatalf("%d merges, %d ranks", len(tok.merged), len(tok.ranks))
	}
	for p, id := range tok.merged {
		if got := tok.pairs.lookup(p.a, p.b); got != id {
			t.Fatalf("lookup(%d,%d) = %d, merged says %d", p.a, p.b, got, id)
		}
		if int(id) != firstMergeID+tok.ranks[p] {
			t.Fatalf("pair (%d,%d): id %d is not firstMergeID + rank %d", p.a, p.b, id, tok.ranks[p])
		}
	}
	if size := len(tok.pairs.slots) * 8; size > 64<<10 {
		t.Fatalf("pair table takes %d bytes, want at most 64 KiB", size)
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 10000; {
		p := pair{Token(rng.Intn(tok.VocabSize())), Token(rng.Intn(tok.VocabSize()))}
		if _, trained := tok.merged[p]; trained {
			continue
		}
		n++
		if got := tok.pairs.lookup(p.a, p.b); got != 0 {
			t.Fatalf("lookup(%d,%d) = %d for an untrained pair", p.a, p.b, got)
		}
	}
	if got := New().pairs.lookup('a', 'b'); got != 0 {
		t.Fatalf("byte-only tokenizer merges (a,b) into %d", got)
	}
}

// benchPrompt is a RAG + session-history prompt of about 1 KB, the shape
// whose length Count pays for on every generation the agent workload
// opens.
func benchPrompt() string {
	return "Summary of earlier conversation:\n" +
		"user: What is the capital of Brazil and which currency is used there?\n" +
		"assistant: The capital of Brazil is Brasília; the currency is the real, not the peso.\n" +
		"user: And what about Poland, is the euro legal tender in Kraków?\n" +
		"assistant: No. Poland uses the złoty; the euro is not legal tender there.\n\n" +
		"Context:\n" +
		"[1] The DMSL laboratory operates a virtual server with an NVIDIA Tesla V100 GPU that hosts the Ollama daemon, " +
		"the vector database and the orchestration platform used in the evaluation.\n" +
		"[2] Retrieval augmented generation embeds the query, performs a similarity search over document fragments " +
		"and prepends the most relevant ones to the prompt before the candidate models are invoked in parallel.\n" +
		"[3] Token budgets are reallocated dynamically by pruning low performing models (λ_max = 2048, α = 0.7).\n\n" +
		"Question: Which GPU does the laboratory's server use, and what does it host?\nAnswer:"
}

// BenchmarkCount is the tokenizer's one micro-benchmark: no layer replay
// of the end-to-end benchmark times the tokenizer on its own.
func BenchmarkCount(b *testing.B) {
	tok := Default()
	prompt := benchPrompt()
	b.SetBytes(int64(len(prompt)))
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += tok.Count(prompt)
	}
	if n == 0 {
		b.Fatal("prompt counted as empty")
	}
}
