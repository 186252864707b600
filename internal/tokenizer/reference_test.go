package tokenizer

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode"
	"unicode/utf8"

	"llmms/internal/truthfulqa"
)

// This file keeps the tokenizer's original, allocation-heavy paths as the
// references the production code is tested against: the trainer that
// recounts every pair for every merge, and the inference path that
// pretokenizes into a []string and merges each word through the trainer's
// ranks/merged maps — against which the incremental trainer, the in-place
// walker, the pooled merge and the pair table are held.

// referenceBPE is what referenceTrain learns: the maps the original
// trainer filled and its encoder reads.
type referenceBPE struct {
	ranks   map[pair]int   // a merge's priority; lower is earlier
	merged  map[pair]Token // the token a merge makes
	bytesOf map[Token][]byte
}

// referenceTrain is the trainer train replaced. For each merge it counts
// every adjacent pair of every word anew and picks the most frequent,
// comparing tie keys it builds for every comparison.
func referenceTrain(corpus string, vocabSize int) *referenceBPE {
	ref := &referenceBPE{ranks: make(map[pair]int), merged: make(map[pair]Token), bytesOf: make(map[Token][]byte)}
	for i := 0; i < byteVocabSize; i++ {
		ref.bytesOf[Token(i)] = []byte{byte(i)}
	}
	vocabSize = min(vocabSize, maxVocabSize)
	if vocabSize <= firstMergeID {
		return ref
	}
	wordCounts := make(map[string]int)
	for _, w := range walk(corpus) {
		wordCounts[w]++
	}
	type seqCount struct {
		seq   []Token
		count int
	}
	words := make([]string, 0, len(wordCounts))
	for w := range wordCounts {
		words = append(words, w)
	}
	sort.Strings(words)
	seqs := make([]seqCount, 0, len(words))
	for _, w := range words {
		seqs = append(seqs, seqCount{seq: bytesToTokens([]byte(w)), count: wordCounts[w]})
	}
	for vocab := firstMergeID; vocab < vocabSize; vocab++ {
		counts := make(map[pair]int)
		for _, sc := range seqs {
			for i := 0; i+1 < len(sc.seq); i++ {
				counts[pair{sc.seq[i], sc.seq[i+1]}] += sc.count
			}
		}
		best, bestCount := pair{}, 0
		for p, c := range counts {
			if c > bestCount || (c == bestCount && ref.lessPair(p, best)) {
				best, bestCount = p, c
			}
		}
		if bestCount < 2 {
			break
		}
		id := Token(vocab)
		ref.ranks[best] = len(ref.ranks)
		ref.merged[best] = id
		ref.bytesOf[id] = append(append([]byte{}, ref.bytesOf[best.a]...), ref.bytesOf[best.b]...)
		for i := range seqs {
			seqs[i].seq = applyMerge(seqs[i].seq, best, id)
		}
	}
	return ref
}

// lessPair orders pairs by the bytes they expand to, and two pairs that
// expand alike by their ids.
func (ref *referenceBPE) lessPair(p, q pair) bool {
	pk := string(ref.bytesOf[p.a]) + "\x00" + string(ref.bytesOf[p.b])
	qk := string(ref.bytesOf[q.a]) + "\x00" + string(ref.bytesOf[q.b])
	return pk < qk || pk == qk && (p.a < q.a || p.a == q.a && p.b < q.b)
}

// merge is one learned merge: the pair and the token it makes.
type merge struct {
	p  pair
	id Token
}

// rankedMerges lists ref's merges in rank order.
func (ref *referenceBPE) rankedMerges() []merge {
	list := make([]merge, len(ref.ranks))
	for p, r := range ref.ranks {
		list[r] = merge{p, ref.merged[p]}
	}
	return list
}

// rankedMerges reads tok's merges back from its pair table, in id order.
func rankedMerges(tok *Tokenizer) []merge {
	var list []merge
	for _, s := range tok.pairs.slots {
		if s.id != 0 {
			list = append(list, merge{pair{Token(s.key >> 16), Token(s.key & 0xffff)}, Token(s.id)})
		}
	}
	slices.SortFunc(list, func(x, y merge) int { return int(x.id - y.id) })
	return list
}

// seedReference is the reference's Default: the seed corpus trained by
// referenceTrain.
var seedReference = sync.OnceValue(func() *referenceBPE { return referenceTrain(seedCorpus, defaultVocabSize) })

// checkTrainedLike asserts tok learned what ref did: the same merges in
// the same rank order, making the same ids, which expand to the same
// bytes.
func checkTrainedLike(t testing.TB, tok *Tokenizer, ref *referenceBPE) {
	t.Helper()
	got, want := rankedMerges(tok), ref.rankedMerges()
	for r := range min(len(got), len(want)) {
		if got[r] != want[r] {
			t.Fatalf("merge of rank %d is %v, reference %v", r, got[r], want[r])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d merges, reference %d", len(got), len(want))
	}
	if tok.VocabSize() != len(ref.bytesOf)+numSpecial {
		t.Fatalf("vocabulary of %d, reference %d", tok.VocabSize(), len(ref.bytesOf)+numSpecial)
	}
	for id, text := range tok.texts {
		if want := string(ref.bytesOf[Token(id)]); text != want {
			t.Fatalf("token %d expands to %q, reference %q", id, text, want)
		}
	}
	if err := tok.Validate(); err != nil {
		t.Fatal(err)
	}
}

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

// encodeWord applies ref's merges to one pre-token through its maps,
// lowest rank first.
func (ref *referenceBPE) encodeWord(b []byte) []Token {
	seq := bytesToTokens(b)
	for len(seq) > 1 {
		bestRank := -1
		var bestPair pair
		for i := 0; i+1 < len(seq); i++ {
			p := pair{seq[i], seq[i+1]}
			if r, ok := ref.ranks[p]; ok && (bestRank == -1 || r < bestRank) {
				bestRank = r
				bestPair = p
			}
		}
		if bestRank == -1 {
			break
		}
		seq = applyMerge(seq, bestPair, ref.merged[bestPair])
	}
	return seq
}

func (ref *referenceBPE) encode(text string) []Token {
	var out []Token
	for _, w := range pretokenize(text) {
		out = append(out, ref.encodeWord([]byte(w))...)
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
	return &Tokenizer{pairs: t.pairs, texts: t.texts}
}

// emptied holds, per tokenizer checked against the reference, one copy
// for each inference entry point, whose memo checkAgainstReference
// empties before every input. Tests call it from one goroutine.
var emptied = map[*Tokenizer]*[3]*Tokenizer{}

// checkAgainstReference asserts the three inference entry points of tok,
// trained like ref, agree with ref's encoder on s: each on tok, whose memo
// is shared with the other inputs, and each twice on a tokenizer of its
// own whose memo starts empty — a miss, then a hit.
func checkAgainstReference(t testing.TB, ref *referenceBPE, tok *Tokenizer, s string) {
	t.Helper()
	want := ref.encode(s)
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
// Encode and AppendIDs equal the reference — the reference trainer's maps
// read by the reference encoder — token for token, Count equals its
// length, and the walker yields the reference's pre-tokens.
func TestEncodeMatchesReference(t *testing.T) {
	tok, ref := Default(), seedReference()
	inputs := referenceInputs()
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 5000; i++ {
		inputs = append(inputs, randomBytes(rng))
	}
	for _, s := range inputs {
		checkAgainstReference(t, ref, tok, s)
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
	byteOnly := referenceTrain("", 0)
	for _, s := range inputs[:40] {
		checkAgainstReference(t, byteOnly, New(), s)
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
	ref := seedReference()
	for _, s := range inputs[memoCap-100:] {
		checkAgainstReference(t, ref, tok, s)
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
		want := ref.encodeWord([]byte(w))
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
		want[i] = len(seedReference().encode(s))
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
// against the maps the reference trainer filled: every trained pair maps
// to its merged id, whose order is rank order, and untrained pairs miss.
func TestPairTableMatchesMaps(t *testing.T) {
	tok, ref := Default(), seedReference()
	if len(ref.merged) == 0 || len(ref.merged) != len(ref.ranks) {
		t.Fatalf("%d merges, %d ranks", len(ref.merged), len(ref.ranks))
	}
	for p, id := range ref.merged {
		if got := tok.pairs.lookup(p.a, p.b); got != id {
			t.Fatalf("lookup(%d,%d) = %d, merged says %d", p.a, p.b, got, id)
		}
		if int(id) != firstMergeID+ref.ranks[p] {
			t.Fatalf("pair (%d,%d): id %d is not firstMergeID + rank %d", p.a, p.b, id, ref.ranks[p])
		}
	}
	if size := len(tok.pairs.slots) * 8; size > 64<<10 {
		t.Fatalf("pair table takes %d bytes, want at most 64 KiB", size)
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 10000; {
		p := pair{Token(rng.Intn(tok.VocabSize())), Token(rng.Intn(tok.VocabSize()))}
		if _, trained := ref.merged[p]; trained {
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

// TestTrainMatchesReference holds the incremental trainer to the one it
// replaced: the seed corpus at three vocabulary sizes — 2048 through
// Default — and random corpora over the alphabet that decides pre-token
// boundaries, at sizes on both sides of firstMergeID.
func TestTrainMatchesReference(t *testing.T) {
	checkTrainedLike(t, Default(), seedReference())
	for _, vocab := range []int{300, 600} {
		checkTrainedLike(t, train(seedCorpus, vocab), referenceTrain(seedCorpus, vocab))
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 300; i++ {
		var corpus strings.Builder
		for n := rng.Intn(60); n > 0; n-- {
			corpus.WriteString(randomBytes(rng))
		}
		vocab := firstMergeID - 10 + rng.Intn(300)
		checkTrainedLike(t, train(corpus.String(), vocab), referenceTrain(corpus.String(), vocab))
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
