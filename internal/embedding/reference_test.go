package embedding_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"llmms/internal/embedding"
	"llmms/internal/rag"
	"llmms/internal/truthfulqa"
)

// referenceTexts is what the accumulator is held to its map-based
// reference on: the benchmark's 817 questions with all their reference
// answers, RAG-and-summary prompts built the way the server builds them,
// and strings that leave the ASCII fast path — mixed case, letters whose
// lowercase is ASCII (İ, K), other scripts, emoji, invalid UTF-8.
func referenceTexts() (texts, prompts, questions []string) {
	items := truthfulqa.Generate(817, 1)
	for _, it := range items {
		questions = append(questions, it.Question)
		texts = append(texts, it.Question, it.BestAnswer)
		texts = append(texts, it.CorrectAnswers...)
		texts = append(texts, it.IncorrectAnswers...)
	}
	for i, it := range items {
		var chunks []string
		for j := 1; j <= 3; j++ {
			other := items[(i+j*97)%len(items)]
			chunks = append(chunks, other.BestAnswer+" "+strings.Join(other.CorrectAnswers, " "))
		}
		prev := items[(i+1)%len(items)]
		prompts = append(prompts, rag.BuildPrompt(rag.PromptParts{
			Question: it.Question,
			Chunks:   chunks[:i%4],
			Summary:  "user: " + prev.Question + "\nassistant: " + prev.BestAnswer,
		}))
	}
	texts = append(texts, prompts...)
	texts = append(texts,
		"", " ", "THE The the", "MiXeD CaSe WORDS and Digits 0123456789", "İstanbul KELVIN K ǅ ß Σίσυφος",
		"naïve café déjà-vu", "日本語のテキストと English words", "emoji 🦇🦊 between words",
		"invalid \xff\xfe bytes \xc3", "\xc3\xa9\xc3", "ends mid-rune \xe6\x97", "a\x00b\x7fc",
	)
	rng := rand.New(rand.NewSource(39))
	const alphabet = "  aeiostn THE,.!?\n\t0159AZaz\xc3\xa9\xc4\xb0\xe2\x84\xaa\xe6\x97\xa5\xf0\x9f\xa6\x87\xff"
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(80))
		for j := range b {
			if rng.Intn(10) == 0 {
				b[j] = byte(rng.Intn(256))
			} else {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		texts = append(texts, string(b))
	}
	return texts, prompts, questions
}

func bitEqual(a, b embedding.Vector) bool {
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

// split cuts s at random byte offsets, so pieces end mid-word and
// mid-rune.
func split(rng *rand.Rand, s string) []string {
	var chunks []string
	for len(s) > 0 {
		n := 1 + rng.Intn(len(s))
		chunks = append(chunks, s[:n])
		s = s[n:]
	}
	return chunks
}

// TestAccumulatorMatchesMapReference holds the flat feature table, the
// memoized weights and the ASCII fast path to the map-based accumulator
// they replaced, bit for bit, for every registered encoder profile:
// whole texts, random chunk splits, and a question accumulated on the
// accumulator a prompt was just reset from.
func TestAccumulatorMatchesMapReference(t *testing.T) {
	texts, prompts, questions := referenceTexts()
	for _, name := range []string{embedding.ModelDefault, embedding.ModelNomic, embedding.ModelMxbai} {
		enc, err := embedding.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(enc.Dim())))
		for _, s := range texts {
			want := embedding.ReferenceVector(enc, s)
			if got := enc.Encode(s); !bitEqual(got, want) {
				t.Fatalf("%s: Encode(%q) differs from the map reference", name, s)
			}
			chunks := split(rng, s)
			acc, _ := embedding.NewAccumulator(enc)
			for _, c := range chunks {
				acc.Add(c)
			}
			if got := acc.View(); !bitEqual(got, embedding.ReferenceVector(enc, chunks...)) {
				t.Fatalf("%s: %q in chunks %q differs from the map reference", name, s, chunks)
			}
			acc.Release()
		}
		acc, _ := embedding.NewAccumulator(enc)
		for i, p := range prompts {
			q := questions[(i*7)%len(questions)]
			acc.Add(p)
			if got := acc.View(); !bitEqual(got, embedding.ReferenceVector(enc, p)) {
				t.Fatalf("%s: prompt %q differs from the map reference", name, p)
			}
			acc.Reset()
			acc.Add(q)
			if got := acc.View(); !bitEqual(got, embedding.ReferenceVector(enc, q)) {
				t.Fatalf("%s: question %q after a prompt differs from the map reference", name, q)
			}
			acc.Reset()
		}
	}
}
