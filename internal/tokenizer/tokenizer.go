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
// Default trains the tokenizer once, deterministically, on an embedded
// English seed corpus; the result is safe for concurrent use.
package tokenizer

import (
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
// usable; construct with New or Default. Its merge table is fixed once
// trained; inference adds the words it merges to a bounded memo under a
// lock, so a Tokenizer is safe for concurrent use.
type Tokenizer struct {
	// pairs maps each mergeable pair to the token that replaces it (see
	// pairTable); merged ids are handed out in rank order.
	pairs pairTable
	// texts holds every token's expansion, indexed by token id, so
	// decoding one token on the generation path allocates nothing. Its
	// length is the vocabulary size.
	texts []string

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
	t := &Tokenizer{texts: make([]string, firstMergeID)}
	for i := 0; i < byteVocabSize; i++ {
		t.texts[i] = string([]byte{byte(i)})
	}
	return t
}

// defaultVocabSize is the vocabulary Default trains toward. The seed
// corpus runs out of pairs seen twice first, at 751 ids.
const defaultVocabSize = 2048

// train learns a BPE merge table from corpus, up to vocabSize ids in all:
// the 256 byte tokens, the special tokens and one per merge. A size at or
// below firstMergeID yields a byte-only tokenizer; one above maxVocabSize
// is clamped to it. Training stops early once no pair occurs twice.
//
// Each round merges the most frequent adjacent pair; ties break on the
// bytes the pair expands to, so identical corpora always yield identical
// tokenizers. The counts are kept current rather than recounted: a merge
// visits only the words its pair occurs in (see trainer).
func train(corpus string, vocabSize int) *Tokenizer {
	t := New()
	vocabSize = min(vocabSize, maxVocabSize)
	if vocabSize <= firstMergeID {
		return t
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
	words := make([]string, 0, len(wordCounts))
	for w := range wordCounts {
		words = append(words, w)
	}
	sort.Strings(words) // determinism

	tr := &trainer{texts: t.texts, index: make(map[pair]int32), words: make([]trainWord, len(words))}
	for i, w := range words {
		tr.words[i] = trainWord{seq: bytesToTokens([]byte(w)), count: wordCounts[w]}
		tr.tally(int32(i), 1, anyToken)
	}
	tr.requeue()
	var merges []pair
	for len(tr.texts) < vocabSize {
		best, ok := tr.pop()
		if !ok {
			break
		}
		merges = append(merges, best)
		tr.merge(best, Token(len(tr.texts)))
	}
	t.texts = tr.texts
	t.pairs = newPairTable(merges)
	return t
}

// trainer is one training run's state: the corpus's distinct words as
// token sequences, and for every adjacent pair its count over the corpus
// and the words it occurs in, both kept current merge by merge, with a
// max-heap of the counts to pick the next merge from.
type trainer struct {
	texts []string // every token's expansion; a merge appends its own
	words []trainWord
	stats []pairStat
	index map[pair]int32 // a pair's slot in stats
	// heap holds an entry for every pair whose count is above zero, with
	// that count; entries whose pair's count has moved since are stale,
	// and pop drops them.
	heap    []heapEntry
	touched []int32 // slots whose count moved since the last requeue
}

type trainWord struct {
	seq   []Token
	count int // occurrences in the corpus
}

type pairStat struct {
	p pair
	// key is the tie-break between equal counts, computed once: the
	// pair's expansion with NUL between its halves. NUL never merges (a
	// control byte is always its own pre-token), so comparing keys
	// compares the halves' bytes in order.
	key    string
	count  int
	queued int     // the count of the pair's newest heap entry
	words  []int32 // the words the pair has occurred in, each listed once
	moved  bool    // listed in touched
}

type heapEntry struct {
	count int
	stat  int32
}

// anyToken is tally's made for a word's first tally, all of whose pairs
// are new.
const anyToken Token = -1

// tally adds the pairs of word w to the counts, each sign times the
// word's count, and, when sign is positive, lists w under each pair that
// involves made: merging a pair into made creates no other adjacency.
func (tr *trainer) tally(w int32, sign int, made Token) {
	word := &tr.words[w]
	for i := 0; i+1 < len(word.seq); i++ {
		p := pair{word.seq[i], word.seq[i+1]}
		si, ok := tr.index[p]
		if !ok {
			si = int32(len(tr.stats))
			tr.index[p] = si
			tr.stats = append(tr.stats, pairStat{p: p, key: tr.texts[p.a] + "\x00" + tr.texts[p.b]})
		}
		st := &tr.stats[si]
		st.count += sign * word.count
		if !st.moved {
			st.moved = true
			tr.touched = append(tr.touched, si)
		}
		if sign > 0 && (made == anyToken || p.a == made || p.b == made) &&
			(len(st.words) == 0 || st.words[len(st.words)-1] != w) {
			st.words = append(st.words, w)
		}
	}
}

// merge replaces p with made in every word listed under p, moving the
// counts of those words' pairs with them, and queues the counts that
// moved. A word an earlier merge took p out of is tallied back unchanged.
func (tr *trainer) merge(p pair, made Token) {
	tr.texts = append(tr.texts, tr.texts[p.a]+tr.texts[p.b])
	si := tr.index[p]
	for _, w := range tr.stats[si].words {
		tr.tally(w, -1, made)
		tr.words[w].seq = applyMerge(tr.words[w].seq, p, made)
		tr.tally(w, 1, made)
	}
	tr.stats[si].words = nil
	tr.requeue()
}

// requeue pushes a heap entry for every pair whose count moved to a new
// value above zero. The count of a pair that involves no new token can
// only fall, so a pair whose count reached zero never needs one again.
func (tr *trainer) requeue() {
	for _, si := range tr.touched {
		st := &tr.stats[si]
		st.moved = false
		if st.count > 0 && st.count != st.queued {
			st.queued = st.count
			tr.heap = append(tr.heap, heapEntry{st.count, si})
			tr.up(len(tr.heap) - 1)
		}
	}
	tr.touched = tr.touched[:0]
}

// pop removes and returns the pair to merge next: the highest count, the
// lowest key among equal counts. It reports false once no pair occurs
// twice.
func (tr *trainer) pop() (pair, bool) {
	for len(tr.heap) > 0 {
		e := tr.heap[0]
		last := len(tr.heap) - 1
		tr.heap[0] = tr.heap[last]
		tr.heap = tr.heap[:last]
		tr.down(0)
		if st := &tr.stats[e.stat]; e.count == st.count {
			if e.count < 2 {
				return pair{}, false
			}
			return st.p, true
		}
	}
	return pair{}, false
}

// before orders heap entries: higher count first, then lower key, then —
// for two tokens with the same expansion — lower ids.
func (tr *trainer) before(i, j int) bool {
	if ci, cj := tr.heap[i].count, tr.heap[j].count; ci != cj {
		return ci > cj
	}
	si, sj := &tr.stats[tr.heap[i].stat], &tr.stats[tr.heap[j].stat]
	if si.key != sj.key {
		return si.key < sj.key
	}
	return si.p.a < sj.p.a || si.p.a == sj.p.a && si.p.b < sj.p.b
}

func (tr *trainer) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !tr.before(i, parent) {
			return
		}
		tr.heap[i], tr.heap[parent] = tr.heap[parent], tr.heap[i]
		i = parent
	}
}

func (tr *trainer) down(i int) {
	for {
		first, l := i, 2*i+1
		if l < len(tr.heap) && tr.before(l, first) {
			first = l
		}
		if r := l + 1; r < len(tr.heap) && tr.before(r, first) {
			first = r
		}
		if first == i {
			return
		}
		tr.heap[i], tr.heap[first] = tr.heap[first], tr.heap[i]
		i = first
	}
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
// is the whole merge table: merged ids are handed out in rank order, so
// the lower id is the earlier merge.
type pairTable struct {
	slots []pairSlot
	shift uint // 32 - log2(len(slots))
}

// pairSlot is empty when id is 0, which is never a merged token.
type pairSlot struct {
	key uint32 // a<<16 | b
	id  uint32
}

// newPairTable builds the table of merges, given in rank order: the
// merge of rank r makes token firstMergeID + r.
func newPairTable(merges []pair) pairTable {
	if len(merges) == 0 {
		return pairTable{}
	}
	bits := uint(4)
	for 1<<bits < 4*len(merges) {
		bits++
	}
	pt := pairTable{slots: make([]pairSlot, 1<<bits), shift: 32 - bits}
	for r, p := range merges {
		id := firstMergeID + r
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
		sb.WriteString(t.DecodeOne(tok))
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

var (
	defaultOnce sync.Once
	defaultTok  *Tokenizer
)

// Default returns the shared tokenizer trained on the embedded seed
// corpus. The first call trains it; subsequent calls return the same
// instance. The result is safe for concurrent use.
func Default() *Tokenizer {
	defaultOnce.Do(func() {
		defaultTok = train(seedCorpus, defaultVocabSize)
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
