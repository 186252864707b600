// Package tokenizer implements a byte-level BPE (byte pair encoding)
// subword tokenizer.
//
// The tokenizer underpins every token-denominated quantity in LLM-MS:
// generation budgets (λ_max in the OUA and MAB algorithms), per-chunk
// allowances, token-usage accounting in the evaluation harness, and the
// token-overlap F1 metric. It is modeled after the GPT-2 family of
// byte-level BPE tokenizers: the base vocabulary is the 256 single bytes,
// so any input string round-trips exactly through Encode/Decode, and a
// learned merge table composes frequent byte pairs into subword units.
//
// A tokenizer is trained deterministically with Train, or obtained from
// Default, which trains once on an embedded English seed corpus and is
// safe for concurrent use.
package tokenizer

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Token is a single vocabulary id produced by Encode.
type Token int

// Special token ids occupy the range immediately above the 256 byte
// tokens. Merged subword tokens start at firstMergeID.
const byteVocabSize = 256

const (
	// BOS marks the beginning of a sequence.
	BOS Token = byteVocabSize + iota
	// EOS marks the end of a sequence.
	EOS
	// PAD pads batched sequences to a common length.
	PAD
	// UNK is reserved for compatibility; byte fallback makes it unreachable
	// during normal encoding.
	UNK
)

const (
	numSpecial   = 4
	firstMergeID = byteVocabSize + numSpecial
)

// pair is an adjacent token pair considered for merging.
type pair struct {
	a, b Token
}

// Tokenizer is a trained byte-level BPE tokenizer. The zero value is not
// usable; construct with Train or New. Its merge tables are fixed once
// trained; inference adds the words it merges to a bounded memo under a
// lock, so a Tokenizer is safe for concurrent use.
type Tokenizer struct {
	// ranks maps a mergeable pair to its merge priority; lower is earlier.
	ranks map[pair]int
	// merged maps a pair to the token id that replaces it.
	merged map[pair]Token
	// pairs is what Encode and Count read instead of the two maps: the
	// same merges in one open-addressed table (see pairTable).
	pairs pairTable
	// bytesOf maps every token id to the bytes it expands to.
	bytesOf map[Token][]byte
	// texts holds the same expansion as a string, indexed by token id, so
	// decoding one token on the generation path allocates nothing.
	texts []string
	// vocabSize is the total number of token ids (bytes + special + merges).
	vocabSize int

	// memo maps a pre-token of 2 to maxMemoWord bytes to its merged
	// tokens, memoTokens[v>>memoLenBits:][:v&memoLenMask] for its value v.
	// mergeWord is a pure function of the word, so a hit is exact. It
	// holds at most memoCap words; a full memo is only read.
	memoMu     sync.RWMutex
	memo       map[string]uint32
	memoTokens []uint16
}

// The memo's bounds: the words it takes, and the longest word it takes.
// Merged tokens fit 16 bits (maxVocabSize), and a word's count of them
// memoLenBits (a token is at least a byte).
const (
	memoCap     = 1 << 12
	maxMemoWord = 32
	memoLenBits = 6
	memoLenMask = 1<<memoLenBits - 1
)

// New returns a tokenizer with no learned merges: every byte is its own
// token. It is primarily useful in tests and as a degenerate baseline.
func New() *Tokenizer {
	t := &Tokenizer{
		ranks:   make(map[pair]int),
		merged:  make(map[pair]Token),
		bytesOf: make(map[Token][]byte, byteVocabSize+numSpecial),
	}
	for i := 0; i < byteVocabSize; i++ {
		t.bytesOf[Token(i)] = []byte{byte(i)}
	}
	t.bytesOf[BOS] = nil
	t.bytesOf[EOS] = nil
	t.bytesOf[PAD] = nil
	t.bytesOf[UNK] = nil
	t.vocabSize = firstMergeID
	t.texts = make([]string, firstMergeID)
	for i := 0; i < byteVocabSize; i++ {
		t.texts[i] = string([]byte{byte(i)})
	}
	return t
}

// TrainOptions controls BPE training.
type TrainOptions struct {
	// VocabSize is the target total vocabulary size including the 256 byte
	// tokens and the special tokens. Values at or below firstMergeID yield
	// a byte-only tokenizer; values above maxVocabSize are clamped to it.
	VocabSize int
	// MinPairCount is the minimum frequency an adjacent pair must reach to
	// be merged. Defaults to 2.
	MinPairCount int
}

// Train learns a BPE merge table from corpus. Training is deterministic:
// ties between equally frequent pairs break on byte order, so identical
// corpora always yield identical tokenizers.
func Train(corpus string, opts TrainOptions) *Tokenizer {
	if opts.MinPairCount <= 0 {
		opts.MinPairCount = 2
	}
	t := New()
	if opts.VocabSize <= firstMergeID {
		return t
	}
	if opts.VocabSize > maxVocabSize {
		opts.VocabSize = maxVocabSize
	}

	// Work on pre-tokenized words so merges never cross word boundaries,
	// mirroring GPT-2-style training.
	wordCounts := make(map[string]int)
	for p := (pretokens{text: corpus}); ; {
		w, ok := p.next()
		if !ok {
			break
		}
		wordCounts[w]++
	}
	type seqCount struct {
		seq   []Token
		count int
	}
	seqs := make([]seqCount, 0, len(wordCounts))
	words := make([]string, 0, len(wordCounts))
	for w := range wordCounts {
		words = append(words, w)
	}
	sort.Strings(words) // determinism
	for _, w := range words {
		seqs = append(seqs, seqCount{seq: bytesToTokens([]byte(w)), count: wordCounts[w]})
	}

	for t.vocabSize < opts.VocabSize {
		// Count adjacent pairs across all word sequences.
		counts := make(map[pair]int)
		for _, sc := range seqs {
			for i := 0; i+1 < len(sc.seq); i++ {
				counts[pair{sc.seq[i], sc.seq[i+1]}] += sc.count
			}
		}
		best, bestCount := pair{}, 0
		for p, c := range counts {
			if c > bestCount || (c == bestCount && lessPair(p, best, t)) {
				best, bestCount = p, c
			}
		}
		if bestCount < opts.MinPairCount {
			break
		}
		id := Token(t.vocabSize)
		t.vocabSize++
		t.ranks[best] = len(t.ranks)
		t.merged[best] = id
		joined := append(append([]byte{}, t.bytesOf[best.a]...), t.bytesOf[best.b]...)
		t.bytesOf[id] = joined
		t.texts = append(t.texts, string(joined))
		for i := range seqs {
			seqs[i].seq = applyMerge(seqs[i].seq, best, id)
		}
	}
	t.pairs = newPairTable(t.merged)
	return t
}

// lessPair orders pairs by the bytes they expand to, for deterministic
// tie-breaking during training.
func lessPair(p, q pair, t *Tokenizer) bool {
	pk := string(t.bytesOf[p.a]) + "\x00" + string(t.bytesOf[p.b])
	qk := string(t.bytesOf[q.a]) + "\x00" + string(t.bytesOf[q.b])
	return pk < qk
}

// applyMerge replaces every adjacent occurrence of p in seq with id.
func applyMerge[T Token | uint16](seq []T, p pair, id Token) []T {
	out := seq[:0]
	for i := 0; i < len(seq); i++ {
		if i+1 < len(seq) && Token(seq[i]) == p.a && Token(seq[i+1]) == p.b {
			out = append(out, T(id))
			i++
			continue
		}
		out = append(out, seq[i])
	}
	return out
}

func bytesToTokens(b []byte) []Token {
	ts := make([]Token, len(b))
	for i, c := range b {
		ts[i] = Token(c)
	}
	return ts
}

// pretokens walks a text's pre-tokens in place: runs of letters/digits
// with one preceding space attached GPT-2 style, every other space on its
// own, and every other rune — punctuation, control bytes, an invalid
// UTF-8 byte — on its own. Each pre-token is a substring of the text and
// together they partition it, so nothing is copied, invalid UTF-8
// survives unchanged and the byte-level round-trip guarantee holds for
// any input.
type pretokens struct {
	text string
	i    int
}

// next returns the next pre-token, or false at the end of the text.
func (p *pretokens) next() (string, bool) {
	text, start := p.text, p.i
	if start >= len(text) {
		return "", false
	}
	i := start
	if text[i] == ' ' {
		i++
	}
	n := wordRune(text[i:])
	if n == 0 {
		if i == start { // not a space either: the rune stands alone
			_, n = utf8.DecodeRuneInString(text[i:])
		}
		p.i = i + n
		return text[start:p.i], true
	}
	for n > 0 {
		i += n
		for i < len(text) && isAlnum(text[i]) {
			i++
		}
		n = wordRune(text[i:])
	}
	p.i = i
	return text[start:i], true
}

// isAlnum reports whether c is an ASCII letter or digit.
func isAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// wordRune returns the size of the letter or digit s starts with, 0 when
// it starts with anything else (or is empty).
func wordRune(s string) int {
	if s == "" {
		return 0
	}
	if c := s[0]; c < utf8.RuneSelf {
		if isAlnum(c) {
			return 1
		}
		return 0
	}
	// An invalid byte decodes to U+FFFD, which is neither.
	if r, size := utf8.DecodeRuneInString(s); unicode.IsLetter(r) || unicode.IsDigit(r) {
		return size
	}
	return 0
}

// maxVocabSize keeps every token id within the 16 bits a pairTable key
// gives each half of a pair.
const maxVocabSize = 1 << 16

// pairTable maps a mergeable pair to the token that replaces it: open
// addressing with linear probing over a power-of-two number of 8-byte
// slots, at most a quarter full (64 KiB for the default vocabulary). It
// stands in for both maps on the inference path, because merged ids are
// handed out in rank order: the lower id is the earlier merge.
type pairTable struct {
	slots []pairSlot
	shift uint // 32 - log2(len(slots))
}

// pairSlot is empty when id is 0, which is never a merged token.
type pairSlot struct {
	key uint32 // a<<16 | b
	id  uint32
}

func newPairTable(merged map[pair]Token) pairTable {
	if len(merged) == 0 {
		return pairTable{}
	}
	bits := uint(4)
	for 1<<bits < 4*len(merged) {
		bits++
	}
	pt := pairTable{slots: make([]pairSlot, 1<<bits), shift: 32 - bits}
	for p, id := range merged {
		key := uint32(p.a)<<16 | uint32(p.b)
		i := pt.home(key)
		for pt.slots[i].id != 0 {
			i = (i + 1) & uint32(len(pt.slots)-1)
		}
		pt.slots[i] = pairSlot{key: key, id: uint32(id)}
	}
	return pt
}

func (pt *pairTable) home(key uint32) uint32 { return key * 0x9E3779B1 >> pt.shift }

// lookup returns the token a and b merge into, 0 when they do not merge.
func (pt *pairTable) lookup(a, b Token) Token {
	if len(pt.slots) == 0 {
		return 0
	}
	key := uint32(a)<<16 | uint32(b)
	for i := pt.home(key); ; i = (i + 1) & uint32(len(pt.slots)-1) {
		switch s := pt.slots[i]; {
		case s.id == 0:
			return 0
		case s.key == key:
			return Token(s.id)
		}
	}
}

// scratchPool holds the token buffers words are merged in, so encoding
// allocates nothing but its result and counting nothing at all.
var scratchPool = sync.Pool{New: func() any {
	s := make([]uint16, 0, 64)
	return &s
}}

// mergeWord applies learned merges to one pre-token in seq's storage,
// always choosing the lowest-rank applicable merge first (standard BPE
// inference), and returns the merged sequence.
func (t *Tokenizer) mergeWord(seq []uint16, word string) []uint16 {
	seq = seq[:0]
	for i := 0; i < len(word); i++ {
		seq = append(seq, uint16(word[i]))
	}
	for len(seq) > 1 {
		var best pair
		bestID := Token(0)
		for i := 0; i+1 < len(seq); i++ {
			a, b := Token(seq[i]), Token(seq[i+1])
			if id := t.pairs.lookup(a, b); id != 0 && (bestID == 0 || id < bestID) {
				best, bestID = pair{a, b}, id
			}
		}
		if bestID == 0 {
			break
		}
		seq = applyMerge(seq, best, bestID)
	}
	return seq
}

// wordTokens returns the merged tokens of w, a pre-token of two or more
// bytes: the memo's on a hit, otherwise merged into *buf and remembered
// while the memo has room. The caller holds t.memoMu's read lock, which
// an insert drops and retakes; the result is valid until the next call.
func (t *Tokenizer) wordTokens(w string, buf *[]uint16) []uint16 {
	if v, ok := t.memo[w]; ok {
		return t.memoTokens[v>>memoLenBits:][:v&memoLenMask]
	}
	seq := t.mergeWord(*buf, w)
	*buf = seq
	if len(w) <= maxMemoWord && len(t.memo) < memoCap {
		t.memoMu.RUnlock()
		t.memoMu.Lock()
		if _, dup := t.memo[w]; !dup && len(t.memo) < memoCap {
			if t.memo == nil {
				// Sized for the cap at once: a map that grew while
				// serving would leave each outgrown table as garbage.
				t.memo = make(map[string]uint32, memoCap)
			}
			t.memo[strings.Clone(w)] = uint32(len(t.memoTokens))<<memoLenBits | uint32(len(seq))
			t.memoTokens = append(t.memoTokens, seq...)
		}
		t.memoMu.Unlock()
		t.memoMu.RLock()
	}
	return seq
}

// appendTokens appends text's tokens to dst; T is Token, or the plain int
// the wire carries.
func appendTokens[T ~int](t *Tokenizer, dst []T, text string) []T {
	sp := scratchPool.Get().(*[]uint16)
	t.memoMu.RLock()
	for p := (pretokens{text: text}); ; {
		w, ok := p.next()
		if !ok {
			break
		}
		if len(w) == 1 {
			dst = append(dst, T(w[0]))
			continue
		}
		for _, tok := range t.wordTokens(w, sp) {
			dst = append(dst, T(tok))
		}
	}
	t.memoMu.RUnlock()
	scratchPool.Put(sp)
	return dst
}

// Encode converts text to a token sequence. Encoding never fails: bytes
// with no merge coverage remain single-byte tokens.
func (t *Tokenizer) Encode(text string) []Token {
	if text == "" {
		return nil
	}
	return appendTokens(t, make([]Token, 0, len(text)/2+8), text)
}

// AppendIDs appends text's tokens to dst as plain ints — the form in
// which ids cross the wire — and returns the extended slice.
func (t *Tokenizer) AppendIDs(dst []int, text string) []int {
	return appendTokens(t, dst, text)
}

// Decode reconstructs the original text from a token sequence. Special
// tokens decode to the empty string. Decode(Encode(s)) == s for all s.
func (t *Tokenizer) Decode(tokens []Token) string {
	var sb strings.Builder
	for _, tok := range tokens {
		sb.Write(t.bytesOf[tok])
	}
	return sb.String()
}

// DecodeOne returns the text of a single token; ids outside the
// vocabulary decode to the empty string, like special tokens.
func (t *Tokenizer) DecodeOne(tok Token) string {
	if tok < 0 || int(tok) >= len(t.texts) {
		return ""
	}
	return t.texts[tok]
}

// Count returns the number of tokens Encode would produce for text. It is
// the unit in which all LLM-MS budgets are denominated. It counts without
// encoding: no token sequence is built and nothing is allocated.
func (t *Tokenizer) Count(text string) int {
	sp := scratchPool.Get().(*[]uint16)
	n := 0
	t.memoMu.RLock()
	for p := (pretokens{text: text}); ; {
		w, ok := p.next()
		if !ok {
			break
		}
		if len(w) == 1 {
			n++
			continue
		}
		n += len(t.wordTokens(w, sp))
	}
	t.memoMu.RUnlock()
	scratchPool.Put(sp)
	return n
}

// VocabSize returns the total number of token ids.
func (t *Tokenizer) VocabSize() int { return t.vocabSize }

// IsSpecial reports whether tok is one of the reserved control tokens.
func IsSpecial(tok Token) bool { return tok >= BOS && tok < BOS+numSpecial }

// Validate checks internal consistency of the merge table; it is used by
// tests and by model loaders that deserialize tokenizers.
func (t *Tokenizer) Validate() error {
	if t.vocabSize < firstMergeID {
		return fmt.Errorf("tokenizer: vocab size %d below minimum %d", t.vocabSize, firstMergeID)
	}
	if len(t.ranks) != len(t.merged) {
		return fmt.Errorf("tokenizer: %d ranks but %d merges", len(t.ranks), len(t.merged))
	}
	for p, id := range t.merged {
		want := string(t.bytesOf[p.a]) + string(t.bytesOf[p.b])
		if got := string(t.bytesOf[id]); got != want {
			return fmt.Errorf("tokenizer: merge %d expands to %q, want %q", id, got, want)
		}
	}
	for p, id := range t.merged {
		if got := t.pairs.lookup(p.a, p.b); got != id {
			return fmt.Errorf("tokenizer: pair table maps (%d,%d) to %d, want %d", p.a, p.b, got, id)
		}
		if want := Token(firstMergeID + t.ranks[p]); id != want {
			return fmt.Errorf("tokenizer: merge of rank %d has id %d, want %d", t.ranks[p], id, want)
		}
	}
	if len(t.texts) != t.vocabSize {
		return fmt.Errorf("tokenizer: %d token texts for a vocabulary of %d", len(t.texts), t.vocabSize)
	}
	for id, text := range t.texts {
		if want := string(t.bytesOf[Token(id)]); text != want {
			return fmt.Errorf("tokenizer: token %d decodes to %q, want %q", id, text, want)
		}
	}
	return nil
}

var (
	defaultOnce sync.Once
	defaultTok  *Tokenizer
)

// Default returns the shared tokenizer trained on the embedded seed
// corpus. The first call trains it; subsequent calls return the same
// instance. The result is safe for concurrent use.
func Default() *Tokenizer {
	defaultOnce.Do(func() {
		defaultTok = Train(seedCorpus, TrainOptions{VocabSize: 2048})
	})
	return defaultTok
}

// Words splits text into lowercase alphanumeric words. It is the shared
// normalization used by the F1 metric and the extractive summarizer, kept
// here so every consumer tokenizes identically.
func Words(text string) []string {
	var words []string
	var cur strings.Builder
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(unicode.ToLower(r))
		} else if cur.Len() > 0 {
			words = append(words, cur.String())
			cur.Reset()
		}
	}
	if cur.Len() > 0 {
		words = append(words, cur.String())
	}
	return words
}
