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

	"llmms/internal/tokenizer"
)

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
	if cfg.WordBigrams {
		for i := 0; i+1 < len(words); i++ {
			feats["b:"+words[i]+" "+words[i+1]] += 0.6
		}
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
