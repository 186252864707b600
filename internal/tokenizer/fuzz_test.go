package tokenizer

import (
	"testing"
	"unicode/utf8"
)

// FuzzRoundTrip asserts the byte-level BPE contract on arbitrary input:
// Decode(Encode(s)) == s, and Count(s) == len(Encode(s)). Byte fallback
// makes this hold for any byte sequence, including invalid UTF-8.
func FuzzRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"",
		"hello world",
		"What happens if you swallow chewing gum?",
		"λ_max = 2048 tokens — α·qSim + β·interSim",
		"\x00\xff\xfe binary bytes",
		"multi\nline\n\ninput with   spaces",
		"ⓤⓝⓘⓒⓞⓓⓔ ㊙️ emoji 🦇",
	} {
		f.Add(seed)
	}
	tok := Default()
	f.Fuzz(func(t *testing.T, s string) {
		encoded := tok.Encode(s)
		if got := tok.Decode(encoded); got != s {
			t.Fatalf("round trip failed: %q -> %q", s, got)
		}
		if tok.Count(s) != len(encoded) {
			t.Fatalf("Count(%q) = %d, Encode has %d tokens", s, tok.Count(s), len(encoded))
		}
		for _, tk := range encoded {
			if IsSpecial(tk) {
				t.Fatalf("Encode emitted special token %d for %q", tk, s)
			}
			if int(tk) >= tok.VocabSize() {
				t.Fatalf("token %d outside vocab %d", tk, tok.VocabSize())
			}
		}
		_ = utf8.ValidString(s) // any byte sequence is legal input
	})
}

// FuzzCount holds the in-place inference path to its reference on
// arbitrary bytes: Count(s) is the length of the reference encoding,
// Encode and AppendIDs equal it token for token, and the encoding decodes
// back to s.
func FuzzCount(f *testing.F) {
	for _, seed := range []string{
		"",
		" ",
		"a  b   c ",
		"Question: Are bats blind?\nAnswer:",
		"Brasília, Kraków and Malmö — złoty!",
		"\xc3 \xad\xff a\xc3",
		"   \t\n  ",
		benchPrompt(),
	} {
		f.Add(seed)
	}
	tok, ref := Default(), seedReference()
	f.Fuzz(func(t *testing.T, s string) {
		checkAgainstReference(t, ref, tok, s)
		if got := tok.Decode(tok.Encode(s)); got != s {
			t.Fatalf("round trip failed: %q -> %q", s, got)
		}
	})
}

// FuzzTrain holds the incremental trainer to the reference trainer on
// any corpus and vocabulary size: the same merges in the same rank order,
// making the same ids. Corpora are cut to 4 KiB, since the reference
// recounts the whole corpus for every merge.
func FuzzTrain(f *testing.F) {
	for _, seed := range []struct {
		corpus string
		vocab  uint16
	}{
		{"", defaultVocabSize},
		{"aaa aaaa aa aaaaa aaa", 300},
		{"abab ab abab ba \x00\x00 abab", 500},
		{" the then there them the", firstMergeID},
		{"Brasília, Kraków and Malmö — złoty! \xc3\xad\xff", 400},
		{seedCorpus[:2000], 600},
	} {
		f.Add(seed.corpus, seed.vocab)
	}
	f.Fuzz(func(t *testing.T, corpus string, vocab uint16) {
		corpus = corpus[:min(len(corpus), 4<<10)]
		checkTrainedLike(t, train(corpus, int(vocab)), referenceTrain(corpus, int(vocab)))
	})
}

// FuzzWords asserts the shared word normalizer never produces empty or
// non-lowercase words.
func FuzzWords(f *testing.F) {
	f.Add("Hello, World! 42")
	f.Add("ΣΙΓΜΑ ΤΕΛΙΚΟ ς")
	f.Fuzz(func(t *testing.T, s string) {
		for _, w := range Words(s) {
			if w == "" {
				t.Fatal("empty word emitted")
			}
			for _, r := range w {
				if r >= 'A' && r <= 'Z' {
					t.Fatalf("uppercase survived normalization: %q", w)
				}
			}
		}
	})
}
