package tokenizer

import (
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
	a := Train(seedCorpus, TrainOptions{VocabSize: 600})
	b := Train(seedCorpus, TrainOptions{VocabSize: 600})
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
