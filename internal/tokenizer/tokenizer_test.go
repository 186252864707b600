package tokenizer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestRoundTripBasic(t *testing.T) {
	tok := Default()
	cases := []string{
		"",
		"hello",
		"Hello, world!",
		"The quick brown fox jumps over the lazy dog.",
		"What happens if you eat watermelon seeds?",
		"  leading and trailing  spaces  ",
		"newlines\nand\ttabs",
		"unicode: naïve café übermäßig 北京 🦊",
		"numbers 12345 and punctuation !@#$%^&*()",
		strings.Repeat("repetition ", 50),
	}
	for _, c := range cases {
		if got := tok.Decode(tok.Encode(c)); got != c {
			t.Errorf("round trip failed:\n in:  %q\n out: %q", c, got)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	tok := Default()
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			// Encode works on raw bytes either way, but quick generates
			// valid strings; keep the guard for clarity.
			return true
		}
		return tok.Decode(tok.Encode(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionOnSeedVocabulary(t *testing.T) {
	tok := Default()
	text := "the similarity search retrieved the most relevant document fragments"
	nTokens := tok.Count(text)
	nBytes := len(text)
	if nTokens >= nBytes {
		t.Fatalf("trained tokenizer did not compress: %d tokens for %d bytes", nTokens, nBytes)
	}
	// In-domain English should compress well below one token per 2 bytes.
	if float64(nTokens) > float64(nBytes)/2 {
		t.Errorf("weak compression: %d tokens for %d bytes", nTokens, nBytes)
	}
}

func TestTrainDeterminism(t *testing.T) {
	a := train(seedCorpus, 600)
	b := train(seedCorpus, 600)
	if a.VocabSize() != b.VocabSize() {
		t.Fatalf("vocab sizes differ: %d vs %d", a.VocabSize(), b.VocabSize())
	}
	text := "deterministic training must produce identical tokenizers"
	ea, eb := a.Encode(text), b.Encode(text)
	if len(ea) != len(eb) {
		t.Fatalf("encodings differ in length: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("encodings differ at %d: %d vs %d", i, ea[i], eb[i])
		}
	}
}

func TestByteOnlyTokenizer(t *testing.T) {
	tok := New()
	s := "abc def"
	toks := tok.Encode(s)
	if len(toks) != len(s) {
		t.Fatalf("byte tokenizer produced %d tokens for %d bytes", len(toks), len(s))
	}
	if tok.Decode(toks) != s {
		t.Fatalf("byte tokenizer round trip failed")
	}
}

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default tokenizer invalid: %v", err)
	}
	if err := New().Validate(); err != nil {
		t.Fatalf("byte tokenizer invalid: %v", err)
	}
}

func TestSpecialTokens(t *testing.T) {
	if !IsSpecial(BOS) || !IsSpecial(EOS) || !IsSpecial(PAD) || !IsSpecial(UNK) {
		t.Fatal("special tokens not recognized")
	}
	if IsSpecial(Token(0)) || IsSpecial(Token(300)) {
		t.Fatal("non-special token classified as special")
	}
	tok := Default()
	if got := tok.Decode([]Token{BOS, EOS, PAD, UNK}); got != "" {
		t.Fatalf("special tokens decoded to %q, want empty", got)
	}
}

func TestPretokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"hello world", []string{"hello", " world"}},
		{"a,b", []string{"a", ",", "b"}},
		{"one  two", []string{"one", " ", " two"}},
		{"", nil},
		{"!?", []string{"!", "?"}},
	}
	for _, c := range cases {
		// The walker Encode and Count use, and the reference it replaced.
		for name, got := range map[string][]string{"walker": walk(c.in), "pretokenize": pretokenize(c.in)} {
			if len(got) != len(c.want) {
				t.Errorf("%s(%q) = %q, want %q", name, c.in, got, c.want)
				continue
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("%s(%q)[%d] = %q, want %q", name, c.in, i, got[i], c.want[i])
				}
			}
		}
	}
}

func TestPretokenizeLossless(t *testing.T) {
	f := func(s string) bool {
		return strings.Join(walk(s), "") == s && strings.Join(pretokenize(s), "") == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWords(t *testing.T) {
	got := Words("The Quick-Brown fox, 42 times!")
	want := []string{"the", "quick", "brown", "fox", "42", "times"}
	if len(got) != len(want) {
		t.Fatalf("Words = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Words[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCountMatchesEncode(t *testing.T) {
	tok := Default()
	f := func(s string) bool { return tok.Count(s) == len(tok.Encode(s)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// VocabSize returns the total number of token ids.
func (t *Tokenizer) VocabSize() int { return len(t.texts) }

// IsSpecial reports whether tok is one of the reserved control tokens.
func IsSpecial(tok Token) bool { return tok >= BOS && tok < BOS+numSpecial }

// Validate checks internal consistency of the merge table: one merge per
// id above the special tokens, each joining two earlier tokens and
// expanding to their bytes, and found again by lookup.
func (t *Tokenizer) Validate() error {
	if len(t.texts) < firstMergeID {
		return fmt.Errorf("tokenizer: vocab size %d below minimum %d", len(t.texts), firstMergeID)
	}
	for i := 0; i < byteVocabSize; i++ {
		if t.texts[i] != string([]byte{byte(i)}) {
			return fmt.Errorf("tokenizer: byte token %d decodes to %q", i, t.texts[i])
		}
	}
	for tok := BOS; tok < firstMergeID; tok++ {
		if t.texts[tok] != "" {
			return fmt.Errorf("tokenizer: special token %d decodes to %q", tok, t.texts[tok])
		}
	}
	merges := rankedMerges(t)
	if len(merges) != len(t.texts)-firstMergeID {
		return fmt.Errorf("tokenizer: %d merges for a vocabulary of %d", len(merges), len(t.texts))
	}
	for r, m := range merges {
		if want := Token(firstMergeID + r); m.id != want {
			return fmt.Errorf("tokenizer: merge of rank %d has id %d, want %d", r, m.id, want)
		}
		if m.p.a >= m.id || m.p.b >= m.id {
			return fmt.Errorf("tokenizer: merge %d joins a later token (%d,%d)", m.id, m.p.a, m.p.b)
		}
		if want := t.texts[m.p.a] + t.texts[m.p.b]; t.texts[m.id] != want {
			return fmt.Errorf("tokenizer: merge %d expands to %q, want %q", m.id, t.texts[m.id], want)
		}
		if got := t.pairs.lookup(m.p.a, m.p.b); got != m.id {
			return fmt.Errorf("tokenizer: pair table maps (%d,%d) to %d, want %d", m.p.a, m.p.b, got, m.id)
		}
	}
	return nil
}

// TestDefaultVocabulary pins what Default learns from the seed corpus:
// its vocabulary size and a hash of its merges' halves, in rank order,
// as the recounting trainer learned them.
func TestDefaultVocabulary(t *testing.T) {
	tok := Default()
	if n := tok.VocabSize(); n != 751 {
		t.Fatalf("Default has %d ids, want 751", n)
	}
	h := sha256.New()
	for _, m := range rankedMerges(tok) {
		io.WriteString(h, tok.texts[m.p.a]+"\x00"+tok.texts[m.p.b]+"\x00")
	}
	const want = "b53a18ab2c6bb38e3ffaebbf0e6fa82bcdef9cad321756717be519e7e7b0eb6b"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Default's merges hash to %s, want %s", got, want)
	}
}

// TestTrainAllocs bounds what training the seed corpus allocates, which
// every process pays at start-up: the recounting trainer took 41.6 MB.
func TestTrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tok := train(seedCorpus, defaultVocabSize)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
		t.Fatalf("training the seed corpus allocates %d bytes, want at most 4 MiB", n)
	}
	runtime.KeepAlive(tok)
}

// BenchmarkTrain times training the seed corpus, the incremental trainer
// beside the reference it replaced.
func BenchmarkTrain(b *testing.B) {
	for _, bc := range []struct {
		name  string
		vocab int
		train func(corpus string, vocab int) (merges int)
	}{
		{"incremental/600", 600, func(c string, v int) int { return train(c, v).VocabSize() - firstMergeID }},
		{"incremental/default", defaultVocabSize, func(c string, v int) int { return train(c, v).VocabSize() - firstMergeID }},
		{"reference/default", defaultVocabSize, func(c string, v int) int { return len(referenceTrain(c, v).ranks) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(seedCorpus)))
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				n += bc.train(seedCorpus, bc.vocab)
			}
			if n == 0 {
				b.Fatal("trained no merges")
			}
		})
	}
}
