package embedding

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"

	"llmms/internal/tokenizer"
)

// fnv1a64 is the 64-bit FNV-1a hash, seeded, over a materialized feature
// string: the feature identity the streaming helpers in accumulator.go
// reproduce byte for byte, and the reference they are held to here.
func fnv1a64(seed uint64, s string) uint64 {
	h := fnvInit(seed)
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// refEncode is the pre-fast-path reference encoder: string-keyed feature
// map over tokenizer.Words, flushed in sorted feature order. The
// accumulator path must reproduce it within float tolerance — this pins
// the new uint64-hash scanner to the historical feature definition
// (including its use of tokenizer.Words' normalization).
func refEncode(cfg Config, text string) Vector {
	v := make(Vector, cfg.Dim)
	words := tokenizer.Words(text)
	if len(words) == 0 {
		return v
	}
	feats := make(map[string]float64, len(words)*2)
	for _, w := range words {
		weight := 1.0
		if damp, ok := stopwords[w]; ok {
			weight = damp
		}
		feats["w:"+w] += weight
	}
	for i := 0; i+1 < len(words); i++ {
		feats["b:"+words[i]+" "+words[i+1]] += 0.6
	}
	if n := cfg.CharNGram; n > 0 {
		for _, w := range words {
			if _, stop := stopwords[w]; stop {
				continue
			}
			padded := "^" + w + "$"
			if len(padded) < n {
				continue
			}
			for i := 0; i+n <= len(padded); i++ {
				feats["c:"+padded[i:i+n]] += 0.25
			}
		}
	}
	keys := make([]string, 0, len(feats))
	for f := range feats {
		keys = append(keys, f)
	}
	sort.Strings(keys)
	for _, f := range keys {
		tf := feats[f]
		h := fnv1a64(cfg.Seed, f)
		idx := int(h % uint64(cfg.Dim))
		sign := 1.0
		if (h>>32)&1 == 1 {
			sign = -1.0
		}
		v[idx] += float32(sign * (1 + math.Log(tf+1e-12)) * featureScale(tf))
	}
	NormalizeInPlace(v)
	return v
}

// mapAccumulator is the accumulator as it was before the flat feature
// table: term frequencies in a Go map, both weights of every bump
// computed with math.Log, every rune through the unicode tables. The
// Accumulator must reproduce its vectors bit for bit.
type mapAccumulator struct {
	cfg     Config
	tf      map[uint64]float64
	sums    []float64
	word    []byte
	carry   []byte
	prev    []byte
	hasPrev bool
	pending []pendingFeat
}

func newMapAccumulator(cfg Config) *mapAccumulator {
	return &mapAccumulator{cfg: cfg, tf: make(map[uint64]float64), sums: make([]float64, cfg.Dim)}
}

func (a *mapAccumulator) Add(chunk string) {
	if chunk == "" {
		return
	}
	s := chunk
	if len(a.carry) > 0 {
		s = string(append(a.carry, chunk...))
		a.carry = a.carry[:0]
	}
	for i := 0; i < len(s); {
		if !utf8.FullRuneInString(s[i:]) {
			a.carry = append(a.carry, s[i:]...)
			return
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			a.word = utf8.AppendRune(a.word, unicode.ToLower(r))
		} else if len(a.word) > 0 {
			a.features(a.word, a.bump)
			a.prev = append(a.prev[:0], a.word...)
			a.hasPrev = true
			a.word = a.word[:0]
		}
		i += size
	}
}

// features hands each of word w's features to f in commit order.
func (a *mapAccumulator) features(w []byte, f func(h uint64, d float64)) {
	weight := 1.0
	stop := false
	if damp, ok := stopwords[string(w)]; ok {
		weight, stop = damp, true
	}
	f(hashWordFeat(a.cfg.Seed, w), weight)
	if a.hasPrev {
		f(hashBigramFeat(a.cfg.Seed, a.prev, w), 0.6)
	}
	if n := a.cfg.CharNGram; n > 0 && !stop && len(w)+2 >= n {
		for i := 0; i+n <= len(w)+2; i++ {
			f(hashNGramFeat(a.cfg.Seed, w, i, n), 0.25)
		}
	}
}

func (a *mapAccumulator) bump(h uint64, w float64) {
	old := a.tf[h]
	now := old + w
	a.tf[h] = now
	delta := gWeight(now) - gWeight(old)
	if (h>>32)&1 == 1 {
		delta = -delta
	}
	a.sums[int(h%uint64(a.cfg.Dim))] += delta
}

func (a *mapAccumulator) Vector() Vector {
	dst := make(Vector, a.cfg.Dim)
	a.pending = a.pending[:0]
	if len(a.word) > 0 {
		a.features(a.word, func(h uint64, d float64) {
			for i := range a.pending {
				if a.pending[i].h == h {
					a.pending[i].d += d
					return
				}
			}
			a.pending = append(a.pending, pendingFeat{h: h, d: d})
		})
	}
	sums := append([]float64(nil), a.sums...)
	for _, p := range a.pending {
		delta := gWeight(a.tf[p.h]+p.d) - gWeight(a.tf[p.h])
		if (p.h>>32)&1 == 1 {
			delta = -delta
		}
		sums[int(p.h%uint64(a.cfg.Dim))] += delta
	}
	for i, s := range sums {
		dst[i] = float32(s)
	}
	NormalizeInPlace(dst)
	return dst
}

// ReferenceVector is the map-based reference's vector of chunks added in
// order to a fresh accumulation for enc, a hashing encoder. Exported for
// the external test package, which builds prompts with internal/rag.
func ReferenceVector(enc Encoder, chunks ...string) Vector {
	a := newMapAccumulator(enc.(*hashEncoder).cfg)
	for _, c := range chunks {
		a.Add(c)
	}
	return a.Vector()
}

func maxAbsDiff(a, b Vector) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

// TestEncodeMatchesReference pins the uint64-hash encoder to the
// string-keyed reference implementation.
func TestEncodeMatchesReference(t *testing.T) {
	for _, name := range []string{ModelDefault, ModelMxbai, ModelNomic} {
		enc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := enc.(*hashEncoder).cfg
		f := func(s string) bool {
			return maxAbsDiff(enc.Encode(s), refEncode(cfg, s)) < 1e-6
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, s := range []string{
			"", "   ", "the the the", "not visible from space",
			"mixed CASE Words and 123 digits", "punct!?.,;:", "naïve café déjà-vu",
			"日本語のテキストと English words", "a", "^$ markers w: b: c: literals",
		} {
			if d := maxAbsDiff(enc.Encode(s), refEncode(cfg, s)); d >= 1e-6 {
				t.Errorf("%s: Encode(%q) diverges from reference by %g", name, s, d)
			}
		}
	}
}

// TestReleasedAccumulatorsReuseExactly checks pooled accumulators leak
// nothing from one text into the next: from several goroutines at once,
// every Encode — and every chunked accumulation on an accumulator that
// NewAccumulator recycled — is bit-identical to a never-used
// accumulator's vector, whatever was encoded before (texts ending
// mid-word and mid-rune included, which leave a pending word and a
// carried byte behind).
func TestReleasedAccumulatorsReuseExactly(t *testing.T) {
	enc := Default().(*hashEncoder)
	texts := []string{
		"not visible from space", "", "trailing partial wor", "naïve café déjà-vu", "ends mid-rune \xc3",
		"the the the", strings.Repeat("a long answer about bats and echolocation ", 40), "日本語のテキスト", "x",
		benchPrompt, "Which GPU does the laboratory's server use?",
	}
	want := make([]Vector, len(texts))
	for i, s := range texts {
		acc := (&hashEncoder{cfg: enc.cfg}).NewAccumulator() // its own, empty pool
		acc.Add(s)
		want[i] = acc.Vector()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (n*7 + g) % len(texts)
				if got := enc.Encode(texts[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("Encode(%q) after reuse differs from a fresh accumulator", texts[i])
					return
				}
				acc := enc.NewAccumulator()
				half := len(texts[i]) / 2
				acc.Add(texts[i][:half])
				acc.Add(texts[i][half:])
				got := acc.Vector()
				acc.Release()
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("recycled accumulator over %q differs from a fresh one", texts[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// randomSplit cuts s into chunks at r-chosen byte offsets — deliberately
// byte offsets, not rune or word offsets, so splits land mid-word and
// mid-UTF-8-sequence.
func randomSplit(r *rand.Rand, s string) []string {
	if len(s) == 0 {
		return nil
	}
	var chunks []string
	for len(s) > 0 {
		n := 1 + r.Intn(len(s))
		chunks = append(chunks, s[:n])
		s = s[n:]
	}
	return chunks
}

// TestAccumulatorMatchesEncode is the tentpole property test: for random
// texts and random chunk splits, the accumulator's vector equals the full
// Encode of the concatenation within 1e-6 — chunk boundaries (mid-word,
// mid-rune, mid-bigram) must be invisible.
func TestAccumulatorMatchesEncode(t *testing.T) {
	enc := Default()
	rng := rand.New(rand.NewSource(7))
	f := func(s string) bool {
		acc, ok := NewAccumulator(enc)
		if !ok {
			t.Fatal("default encoder is not Incremental")
		}
		for _, chunk := range randomSplit(rng, s) {
			acc.Add(chunk)
		}
		return maxAbsDiff(acc.Vector(), enc.Encode(s)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestAccumulatorSeams exercises the specific boundary windows with
// handpicked splits: mid-word, mid-rune, bigram-spanning, and repeated
// Vector calls between Adds (Vector must not disturb committed state).
func TestAccumulatorSeams(t *testing.T) {
	enc := Default()
	cases := []struct {
		name   string
		chunks []string
	}{
		{"mid-word", []string{"the great wall is visi", "ble from space"}},
		{"bigram-span", []string{"not ", "visible"}},
		{"mid-rune", []string{"caf\xc3", "\xa9 au lait"}},
		{"rune-never-completes", []string{"caf\xc3", "! au lait"}},
		{"word-per-chunk", []string{"one ", "two ", "three ", "four"}},
		{"byte-at-a-time", func() []string {
			s := "is the sky blue at noon"
			out := make([]string, len(s))
			for i := range s {
				out[i] = s[i : i+1]
			}
			return out
		}()},
		{"empty-chunks", []string{"", "hello ", "", "world", ""}},
		{"trailing-partial-word", []string{"echo", "location in bats"}},
		{"only-stopwords", []string{"the ", "a ", "of"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			acc, _ := NewAccumulator(enc)
			full := ""
			for _, chunk := range tc.chunks {
				acc.Add(chunk)
				full += chunk
				// Interleaved materialization must match the prefix and
				// leave the committed state untouched.
				if d := maxAbsDiff(acc.Vector(), enc.Encode(full)); d >= 1e-6 {
					t.Fatalf("after %q: prefix diverges by %g", chunk, d)
				}
			}
			if d := maxAbsDiff(acc.Vector(), enc.Encode(full)); d >= 1e-6 {
				t.Fatalf("final vector diverges by %g", d)
			}
		})
	}
}

// TestAccumulatorVectorInto checks destination reuse: VectorInto writes
// into a caller buffer of the right capacity without allocating a new
// one, and the result matches Vector.
func TestAccumulatorVectorInto(t *testing.T) {
	enc := Default()
	acc, _ := NewAccumulator(enc)
	acc.Add("the quick brown fox")
	dst := make(Vector, enc.Dim())
	got := acc.VectorInto(dst)
	if &got[0] != &dst[0] {
		t.Fatal("VectorInto reallocated despite sufficient capacity")
	}
	if d := maxAbsDiff(got, acc.Vector()); d != 0 {
		t.Fatalf("VectorInto differs from Vector by %g", d)
	}
}

// TestAccumulatorReset checks Reset returns the accumulator to the empty
// state.
func TestAccumulatorReset(t *testing.T) {
	enc := Default()
	acc, _ := NewAccumulator(enc)
	acc.Add("some earlier response text that must vanish")
	acc.Reset()
	if n := Norm(acc.Vector()); n != 0 {
		t.Fatalf("reset accumulator has norm %g", n)
	}
	acc.Add("fresh text")
	if d := maxAbsDiff(acc.Vector(), enc.Encode("fresh text")); d >= 1e-6 {
		t.Fatalf("post-reset vector diverges by %g", d)
	}
}

// TestStreamingHashesMatch pins the allocation-free streaming feature
// hashes to the one-shot fnv1a64 of the materialized feature strings.
func TestStreamingHashesMatch(t *testing.T) {
	const seed = 0x6c6c6d73
	words := []string{"a", "wall", "naïve", "x1", "échelon"}
	for _, w := range words {
		if got, want := hashWordFeat(seed, []byte(w)), fnv1a64(seed, "w:"+w); got != want {
			t.Errorf("word hash %q: %x != %x", w, got, want)
		}
		for _, w2 := range words {
			if got, want := hashBigramFeat(seed, []byte(w), []byte(w2)), fnv1a64(seed, "b:"+w+" "+w2); got != want {
				t.Errorf("bigram hash %q %q: %x != %x", w, w2, got, want)
			}
		}
		padded := "^" + w + "$"
		for n := 2; n <= 4; n++ {
			for i := 0; i+n <= len(padded); i++ {
				if got, want := hashNGramFeat(seed, []byte(w), i, n), fnv1a64(seed, "c:"+padded[i:i+n]); got != want {
					t.Errorf("ngram hash %q[%d:%d]: %x != %x", padded, i, i+n, got, want)
				}
			}
		}
	}
}

// TestCosineUnitMatchesCosine verifies the unit-vector invariant of
// encoder output: CosineUnit (one dot product) agrees with the
// norm-recomputing Cosine within float32 normalization error.
func TestCosineUnitMatchesCosine(t *testing.T) {
	enc := Default()
	f := func(a, b string) bool {
		va, vb := enc.Encode(a), enc.Encode(b)
		return math.Abs(CosineUnit(va, vb)-Cosine(va, vb)) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightMemoIsExact: every weight the memo holds is gWeight of its
// key bit for bit, the table is at most half full (so a miss ends soon),
// and cachedWeight equals gWeight on the memo's keys and off them.
func TestWeightMemoIsExact(t *testing.T) {
	held := 0
	for _, s := range weightMemo {
		if s.bits == 0 {
			continue
		}
		held++
		tf := math.Float64frombits(s.bits)
		if math.Float64bits(s.g) != math.Float64bits(gWeight(tf)) || cachedWeight(tf) != s.g {
			t.Fatalf("memo holds %v for tf %v, gWeight is %v", s.g, tf, gWeight(tf))
		}
	}
	if held < 64 || 2*held > len(weightMemo) {
		t.Fatalf("memo holds %d of %d slots", held, len(weightMemo))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		tf := rng.Float64() * 40
		if math.Float64bits(cachedWeight(tf)) != math.Float64bits(gWeight(tf)) {
			t.Fatalf("cachedWeight(%v) = %v, gWeight %v", tf, cachedWeight(tf), gWeight(tf))
		}
	}
}
