package embedding

import (
	"math"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Accumulator is incremental per-candidate encoder state: Add extends the
// feature counts with only the new chunk's features, and Vector
// materializes the embedding of everything added so far. For a response
// built from R chunks of average length L, keeping its embedding current
// across rounds costs O(R·L) total instead of the O(R²·L) of re-encoding
// the concatenation after every chunk — the asymptotic half of the
// scoring fast path (DESIGN.md "Scoring fast path").
//
// The accumulator produces the same vector Encode produces for the
// concatenated text (property-tested to 1e-6) regardless of where the
// chunk boundaries fall. Two seams make that nontrivial, and both are
// handled by retaining a small boundary window between Add calls:
//
//   - a chunk may end mid-word ("visi" + "ble"): the in-progress word is
//     buffered and only committed when a non-word rune terminates it;
//   - a chunk may end mid-rune (UTF-8 bytes split across chunks): the
//     incomplete trailing encoding is carried and re-decoded with the
//     next chunk.
//
// Word bigrams need one more committed word of context (prevWord), and
// character n-grams are word-local, so the boundary window is all the
// cross-chunk state there is.
//
// Feature identities are precomputed uint64 FNV-1a hashes streamed over
// the feature bytes ("w:"+word, "b:"+w1+" "+w2, "c:"+ngram) without
// materializing the strings, so steady-state Add performs no string
// allocation and Vector no sorting — this replaces the string-keyed
// feature map and sort.Strings pass of the original encoder.
//
// An Accumulator is NOT safe for concurrent use; each candidate owns one.
type Accumulator struct {
	cfg Config
	// pool is where Release returns the accumulator: its encoder's.
	pool *sync.Pool

	// feats holds the committed term frequency per feature hash.
	feats featTable
	// sums is the unnormalized signed feature accumulation in float64:
	// every tf change applies the telescoping delta g(tf')−g(tf) at the
	// feature's index, so sums always equals the one-shot encoding of the
	// committed text up to float64 rounding.
	sums []float64

	// word is the lowercased in-progress word (committed when a non-word
	// rune arrives); carry is an incomplete trailing UTF-8 encoding.
	word  []byte
	carry []byte
	// prev is the last committed word, the bigram context; hasPrev
	// distinguishes it from the empty state.
	prev    []byte
	hasPrev bool

	// Scratch reused by Vector so materialization allocates only when the
	// caller does not supply a destination.
	pending []pendingFeat
	scratch []float64
	// out is View's output, kept across Release for the next borrower.
	out Vector
}

// pendingFeat is one provisional feature of the in-progress word, applied
// at Vector time without mutating committed state.
type pendingFeat struct {
	h uint64
	d float64
}

// Incremental is implemented by encoders that support incremental
// accumulation. The package's hashing encoders all do; callers holding a
// plain Encoder can type-assert (or use NewAccumulator) and fall back to
// full re-encoding when the assertion fails.
type Incremental interface {
	Encoder
	// NewAccumulator returns fresh accumulation state producing vectors
	// identical to Encode of the concatenated added text.
	NewAccumulator() *Accumulator
}

// NewAccumulator returns incremental state for enc, or ok=false when the
// encoder does not support incremental encoding.
func NewAccumulator(enc Encoder) (*Accumulator, bool) {
	inc, ok := enc.(Incremental)
	if !ok {
		return nil, false
	}
	return inc.NewAccumulator(), true
}

// NewAccumulator implements Incremental. It hands out a released
// accumulator when the encoder has one, a fresh one otherwise.
func (e *hashEncoder) NewAccumulator() *Accumulator {
	if acc, _ := e.accs.Get().(*Accumulator); acc != nil {
		return acc
	}
	return &Accumulator{
		cfg:   e.cfg,
		pool:  &e.accs,
		feats: newFeatTable(),
		sums:  make([]float64, e.cfg.Dim),
	}
}

// Borrow is Encode for a vector that dies within its call: the vector,
// bit-identical to Encode(text), is the View of a pooled accumulator and
// valid until acc.Release, which the caller owes. For an encoder that is
// not Incremental it is Encode's vector and acc is nil.
func Borrow(enc Encoder, text string) (Vector, *Accumulator) {
	acc, ok := NewAccumulator(enc)
	if !ok {
		return enc.Encode(text), nil
	}
	acc.Add(text)
	return acc.View(), acc
}

// Release resets the accumulator and gives it back to its encoder for a
// later NewAccumulator (or Encode) to reuse. Optional — an accumulator
// that is simply dropped is collected as usual — but the caller must not
// touch a released accumulator, or a View of it, again. Nil is a no-op.
func (a *Accumulator) Release() {
	if a == nil {
		return
	}
	a.Reset()
	a.pool.Put(a)
}

// Reset clears the accumulator for reuse on a new text.
func (a *Accumulator) Reset() {
	a.feats.reset()
	for i := range a.sums {
		a.sums[i] = 0
	}
	a.word = a.word[:0]
	a.carry = a.carry[:0]
	a.prev = a.prev[:0]
	a.hasPrev = false
}

// Add extends the accumulated text with chunk. Chunk boundaries are
// arbitrary: words and UTF-8 runes split across calls are reassembled.
func (a *Accumulator) Add(chunk string) {
	if chunk == "" {
		return
	}
	s := chunk
	if len(a.carry) > 0 {
		s = string(append(a.carry, chunk...))
		a.carry = a.carry[:0]
	}
	i := 0
	for i < len(s) {
		// Below utf8.RuneSelf, IsLetter/IsDigit are [A-Za-z0-9] and
		// ToLower is A-Z+32: the same bytes the rune path appends.
		if c := s[i]; c < utf8.RuneSelf {
			switch {
			case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
				a.word = append(a.word, c)
			case 'A' <= c && c <= 'Z':
				a.word = append(a.word, c+'a'-'A')
			case len(a.word) > 0:
				a.commitWord(a.word)
				a.word = a.word[:0]
			}
			i++
			continue
		}
		if !utf8.FullRuneInString(s[i:]) {
			// Incomplete trailing encoding: hold the bytes for the next
			// chunk to complete (or for Vector to discard at the end).
			a.carry = append(a.carry, s[i:]...)
			return
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			a.word = utf8.AppendRune(a.word, unicode.ToLower(r))
		} else if len(a.word) > 0 {
			a.commitWord(a.word)
			a.word = a.word[:0]
		}
		i += size
	}
}

// commitWord folds one completed word's features into the committed
// state, mirroring exactly the feature set Encode derives per word.
func (a *Accumulator) commitWord(w []byte) {
	weight, stop := wordWeight(w)
	a.bump(hashWordFeat(a.cfg.Seed, w), weight)
	if a.hasPrev {
		a.bump(hashBigramFeat(a.cfg.Seed, a.prev, w), 0.6)
	}
	if n := a.cfg.CharNGram; n > 0 && !stop && len(w)+2 >= n {
		for i := 0; i+n <= len(w)+2; i++ {
			a.bump(hashNGramFeat(a.cfg.Seed, w, i, n), 0.25)
		}
	}
	a.prev = append(a.prev[:0], w...)
	a.hasPrev = true
}

// wordWeight returns the weight of word w's own feature: its damping if
// it is a stopword, 1 otherwise. A word longer than the longest stopword
// skips the map.
func wordWeight(w []byte) (weight float64, stop bool) {
	if len(w) <= longestStopword {
		if damp, ok := stopwords[string(w)]; ok {
			return damp, true
		}
	}
	return 1, false
}

var longestStopword = func() int {
	n := 0
	for w := range stopwords {
		n = max(n, len(w))
	}
	return n
}()

// bump raises a feature's term frequency by w, applying the telescoping
// weight delta to the feature's vector component. gWeight(0) == 0, so a
// feature's accumulated contribution always equals gWeight of its current
// tf (up to float64 rounding).
func (a *Accumulator) bump(h uint64, w float64) {
	s := a.feats.slot(h)
	old := s.tf
	s.tf += w
	delta := cachedWeight(s.tf) - cachedWeight(old)
	if (h>>32)&1 == 1 {
		delta = -delta
	}
	a.sums[int(h%uint64(a.cfg.Dim))] += delta
}

// gWeight is the per-feature embedding weight at term frequency tf — the
// sublinear TF of Encode with gWeight(0) == 0 so deltas telescope.
func gWeight(tf float64) float64 {
	if tf == 0 {
		return 0
	}
	return (1 + math.Log(tf+1e-12)) * featureScale(tf)
}

// weightMemo is gWeight of every term frequency a feature reaches in
// its first 32 bumps — all of a feature's bumps add the same weight: a
// word's (1, or its stopword damping), a bigram's or a character
// n-gram's. Open addressing over {bits, gWeight} slots, at most a third
// full, built once and then only read. It is keyed by the float64's bits
// and gWeight is pure, so a hit is exactly what gWeight would return.
var weightMemo = func() *[1 << weightMemoBits]weightSlot {
	var slots [1 << weightMemoBits]weightSlot
	ws := []float64{1, 0.6, 0.25}
	for _, w := range stopwords {
		ws = append(ws, w)
	}
	for _, w := range ws {
		tf := 0.0
		for k := 0; k < 32; k++ {
			tf += w
			bits := math.Float64bits(tf)
			i := weightHome(bits)
			for slots[i].bits != 0 && slots[i].bits != bits {
				i = (i + 1) & (len(slots) - 1)
			}
			slots[i] = weightSlot{bits: bits, g: gWeight(tf)}
		}
	}
	return &slots
}()

const weightMemoBits = 10

// weightSlot is empty when bits is 0, the bits of tf 0.
type weightSlot struct {
	bits uint64
	g    float64
}

func weightHome(bits uint64) int { return int(bits * 0x9E3779B97F4A7C15 >> (64 - weightMemoBits)) }

// cachedWeight is gWeight(tf), from weightMemo when tf is in it.
func cachedWeight(tf float64) float64 {
	if tf == 0 {
		return 0
	}
	bits := math.Float64bits(tf)
	for i := weightHome(bits); ; i = (i + 1) & (len(weightMemo) - 1) {
		switch s := &weightMemo[i]; s.bits {
		case bits:
			return s.g
		case 0:
			return gWeight(tf)
		}
	}
}

// featTable maps a feature hash to its committed term frequency: open
// addressing with linear probing over a power-of-two number of 16-byte
// slots, at most three quarters full — no more bytes than a Go map of
// the same features — plus the list of occupied slots, so that reset
// clears only what the last text touched: a question that follows a long
// prompt does not pay for the prompt's capacity.
type featTable struct {
	slots []featSlot
	used  []int32
	shift uint // 64 - log2(len(slots))
}

// featSlot is free while tf is 0: every bump adds a positive weight.
type featSlot struct {
	h  uint64
	tf float64
}

// featTableMinBits sizes a new table: 128 slots, 2 KiB, for up to 96
// features. A question has 24 at the median; a pooled accumulator keeps
// what it grew to, and a new one is built only after a GC empties the
// pool.
const featTableMinBits = 7

func newFeatTable() featTable {
	const n = 1 << featTableMinBits
	return featTable{slots: make([]featSlot, n), used: make([]int32, 0, n*3/4), shift: 64 - featTableMinBits}
}

// find returns h's slot index, or the free slot where h would go.
func (t *featTable) find(h uint64) int {
	mask := len(t.slots) - 1
	for i := int(h * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.tf == 0 || s.h == h {
			return i
		}
	}
}

// slot returns h's slot for a bump, claiming a free one if need be.
func (t *featTable) slot(h uint64) *featSlot {
	i := t.find(h)
	if t.slots[i].tf == 0 {
		if 4*(len(t.used)+1) > 3*len(t.slots) {
			t.grow()
			i = t.find(h)
		}
		t.slots[i].h = h
		t.used = append(t.used, int32(i))
	}
	return &t.slots[i]
}

// grow doubles the table.
func (t *featTable) grow() {
	old := t.slots
	t.slots = make([]featSlot, 2*len(old))
	t.shift--
	for k, j := range t.used {
		i := t.find(old[j].h)
		t.slots[i] = old[j]
		t.used[k] = int32(i)
	}
}

func (t *featTable) reset() {
	for _, i := range t.used {
		t.slots[i] = featSlot{}
	}
	t.used = t.used[:0]
}

// Vector materializes the normalized embedding of all text added so far.
// The committed state is not mutated: an in-progress word (and any
// incomplete trailing rune, which can never extend it) contributes
// provisionally, exactly as if the text ended here, and a later Add can
// still extend the word. Zero-information input yields the zero vector.
func (a *Accumulator) Vector() Vector {
	return a.VectorInto(nil)
}

// View is Vector written into the accumulator's own storage: no
// allocation once the accumulator has materialized before, but the
// result is only valid until the next View or Release.
func (a *Accumulator) View() Vector {
	a.out = a.VectorInto(a.out)
	return a.out
}

// VectorInto is Vector writing into dst when dst has the encoder's
// dimension (allocating otherwise), for callers reusing per-candidate
// vector storage across scoring rounds.
func (a *Accumulator) VectorInto(dst Vector) Vector {
	dim := a.cfg.Dim
	if cap(dst) >= dim {
		dst = dst[:dim]
	} else {
		dst = make(Vector, dim)
	}
	a.pending = a.pending[:0]
	if len(a.word) > 0 {
		a.pendWord(a.word)
	}
	if len(a.pending) == 0 {
		for i, s := range a.sums {
			dst[i] = float32(s)
		}
		NormalizeInPlace(dst)
		return dst
	}
	if a.scratch == nil {
		a.scratch = make([]float64, dim)
	}
	copy(a.scratch, a.sums)
	for _, p := range a.pending {
		tf := a.feats.slots[a.feats.find(p.h)].tf
		delta := gWeight(tf+p.d) - gWeight(tf)
		if (p.h>>32)&1 == 1 {
			delta = -delta
		}
		a.scratch[int(p.h%uint64(dim))] += delta
	}
	for i, s := range a.scratch {
		dst[i] = float32(s)
	}
	NormalizeInPlace(dst)
	return dst
}

// pendWord collects the provisional features of the in-progress word in
// deterministic order (word, bigram, n-grams by position), merging
// repeats so each feature's delta is computed from its total count.
func (a *Accumulator) pendWord(w []byte) {
	weight, stop := wordWeight(w)
	a.pend(hashWordFeat(a.cfg.Seed, w), weight)
	if a.hasPrev {
		a.pend(hashBigramFeat(a.cfg.Seed, a.prev, w), 0.6)
	}
	if n := a.cfg.CharNGram; n > 0 && !stop && len(w)+2 >= n {
		for i := 0; i+n <= len(w)+2; i++ {
			a.pend(hashNGramFeat(a.cfg.Seed, w, i, n), 0.25)
		}
	}
}

func (a *Accumulator) pend(h uint64, d float64) {
	for i := range a.pending {
		if a.pending[i].h == h {
			a.pending[i].d += d
			return
		}
	}
	a.pending = append(a.pending, pendingFeat{h: h, d: d})
}

// ---- Streaming feature hashing ----------------------------------------
//
// The helpers below stream FNV-1a over the bytes of a feature string
// without building it, matching fnv1a64(seed, feature) byte for byte.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvInit(seed uint64) uint64 { return fnvOffset ^ (seed * fnvPrime) }

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime
	return h
}

func fnvBytes(h uint64, s []byte) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// hashWordFeat hashes "w:"+w.
func hashWordFeat(seed uint64, w []byte) uint64 {
	h := fnvByte(fnvByte(fnvInit(seed), 'w'), ':')
	return fnvBytes(h, w)
}

// hashBigramFeat hashes "b:"+w1+" "+w2.
func hashBigramFeat(seed uint64, w1, w2 []byte) uint64 {
	h := fnvByte(fnvByte(fnvInit(seed), 'b'), ':')
	h = fnvBytes(h, w1)
	h = fnvByte(h, ' ')
	return fnvBytes(h, w2)
}

// hashNGramFeat hashes "c:"+padded[i:i+n] where padded is "^"+w+"$",
// reading the padding bytes positionally instead of building padded.
func hashNGramFeat(seed uint64, w []byte, i, n int) uint64 {
	h := fnvByte(fnvByte(fnvInit(seed), 'c'), ':')
	for j := i; j < i+n; j++ {
		switch {
		case j == 0:
			h = fnvByte(h, '^')
		case j == len(w)+1:
			h = fnvByte(h, '$')
		default:
			h = fnvByte(h, w[j-1])
		}
	}
	return h
}
