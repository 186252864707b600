package embedding

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// bitEqual reports whether a and b hold the same float32 bits.
func bitEqual(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzBorrow holds the borrow rule to Encode bit for bit: a borrowed
// vector, a pooled accumulator reused after a longer text, one fed the
// same text in chunks, and a View taken after further Adds (which must
// overwrite the earlier View in place) all equal Encode of the same text,
// and Encode and the chunked View equal the map-based reference
// (mapAccumulator) bit for bit.
func FuzzBorrow(f *testing.F) {
	for _, s := range []string{
		"", "the the the", "is the great wall visible from space", "naïve café déjà-vu",
		"ends mid-rune \xc3", "日本語のテキストと English words", "trailing partial wor",
	} {
		f.Add(s, uint8(3))
	}
	enc := Default().(*hashEncoder)
	f.Fuzz(func(t *testing.T, text string, cut uint8) {
		want := enc.Encode(text)
		if !bitEqual(want, ReferenceVector(enc, text)) {
			t.Fatalf("Encode(%q) differs from the map reference", text)
		}
		got, acc := Borrow(enc, text)
		if !bitEqual(got, want) {
			t.Fatalf("Borrow(%q) differs from Encode", text)
		}
		acc.Release()

		// An accumulator that held a longer text, reset as Release resets
		// it, and then borrowed again through the pool.
		_, acc = Borrow(enc, text+" and then some longer text "+text)
		acc.Reset()
		acc.Add(text)
		if got = acc.View(); !bitEqual(got, want) {
			t.Fatalf("View of %q after a longer text differs from Encode", text)
		}
		acc.Release()
		got, acc = Borrow(enc, text)
		if !bitEqual(got, want) {
			t.Fatalf("Borrow(%q) after a release differs from Encode", text)
		}

		// The same accumulator, reset and fed the text in two chunks, with
		// a View between them: the second View reuses the first's storage.
		acc.Reset()
		k := int(cut) % (len(text) + 1)
		acc.Add(text[:k])
		first := acc.View()
		if !bitEqual(first, enc.Encode(text[:k])) {
			t.Fatalf("View after %q differs from Encode", text[:k])
		}
		acc.Add(text[k:])
		got = acc.View()
		if !bitEqual(got, want) {
			t.Fatalf("View after chunks %q|%q differs from Encode", text[:k], text[k:])
		}
		if !bitEqual(got, ReferenceVector(enc, text[:k], text[k:])) {
			t.Fatalf("View after chunks %q|%q differs from the map reference", text[:k], text[k:])
		}
		if &got[0] != &first[0] {
			t.Fatal("View reallocated its output")
		}
		acc.Release()
	})
}

// TestBorrowNonIncremental: an encoder without accumulators lends
// Encode's own vector and no accumulator, and releasing that is a no-op.
func TestBorrowNonIncremental(t *testing.T) {
	enc := plainEncoder{Default()}
	v, acc := Borrow(enc, "bats are not blind")
	if acc != nil {
		t.Fatal("a non-Incremental encoder lent an accumulator")
	}
	if !bitEqual(v, Default().Encode("bats are not blind")) {
		t.Fatal("Borrow on a plain encoder differs from Encode")
	}
	acc.Release()
}

// plainEncoder hides its inner encoder's Incremental method.
type plainEncoder struct{ Encoder }

// TestBorrowReleaseAllocatesNothing: once the pool holds an accumulator
// that has materialized before, a borrowed vector costs no allocation —
// a question, and a prompt whose features outgrow a new accumulator's
// table, borrowed in turn from one pooled accumulator.
func TestBorrowReleaseAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	// One P throughout: a pool's put lands in its P's private slot, which a
	// Get on another P does not see, and AllocsPerRun puts GOMAXPROCS back
	// when it returns, so the check after it could run on another P and
	// find the pool empty.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	enc := Default()
	text := strings.Repeat("is the great wall of china visible from space ", 4)
	allocs := testing.AllocsPerRun(100, func() {
		_, acc := Borrow(enc, text)
		acc.Release()
		_, acc = Borrow(enc, benchPrompt)
		acc.Release()
	})
	if allocs != 0 {
		t.Fatalf("Borrow+Release allocates %.1f times per call, want 0", allocs)
	}
	acc, _ := NewAccumulator(enc)
	defer acc.Release()
	if n := len(acc.feats.slots); n <= 1<<featTableMinBits {
		t.Fatalf("the pooled accumulator's table has %d slots: the prompt did not outgrow a new one", n)
	}
}
