// Package embedding implements deterministic text embedding encoders and
// the dense-vector math shared by the vector database and the
// orchestration layer.
//
// LLM-MS scores every partial model output by cosine similarity — to the
// query embedding, to the other models' outputs (inter-model agreement),
// and to the TruthfulQA reference answers (the reward of Eq. 8.1). The
// paper produces those vectors with mxbai-embed-large / nomic-embed-text
// served by Ollama. This package substitutes a feature-hashing encoder:
// words, word bigrams, and character n-grams are hashed into a fixed-size
// signed bag, TF-weighted sublinearly, stopword-damped, and L2-normalized.
// The resulting cosine similarity is monotone in lexical/semantic overlap,
// which is the property every scoring rule in the system relies on, while
// being fully deterministic and dependency-free.
package embedding

import (
	"fmt"
	"math"
	"sync"
)

// Vector is a dense embedding. Encoders always return L2-normalized
// vectors, so Dot and Cosine coincide for encoder output.
type Vector []float32

// Encoder converts text into a fixed-dimension unit vector. Encoders must
// be deterministic and safe for concurrent use.
type Encoder interface {
	// Name identifies the encoder; it is the model name clients pass to
	// the daemon's embedding endpoint.
	Name() string
	// Dim is the dimensionality of returned vectors.
	Dim() int
	// Encode embeds one text. The zero-information input ("" or only
	// stopwords) embeds to the zero vector.
	Encode(text string) Vector
}

// Config parameterizes a hashing encoder.
type Config struct {
	// Name is the public model name of this encoder profile.
	Name string
	// Dim is the embedding dimensionality. Must be positive.
	Dim int
	// Seed perturbs the hash so distinct profiles of the same dimension
	// produce different (but internally consistent) spaces.
	Seed uint64
	// CharNGram enables character n-gram features of the given size
	// (0 disables them). Character features make the encoder robust to
	// morphological variation ("run"/"running").
	CharNGram int
}

// hashEncoder is the feature-hashing implementation of Encoder.
type hashEncoder struct {
	cfg Config
	// accs recycles released accumulators (a Dim-wide float64 array and a
	// feature table each), which Encode would otherwise build and drop on
	// every query, cache probe, retrieval and memory write.
	accs sync.Pool
}

// New returns a deterministic hashing encoder for cfg.
func New(cfg Config) (Encoder, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("embedding: non-positive dimension %d", cfg.Dim)
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("embedding: encoder name required")
	}
	return &hashEncoder{cfg: cfg}, nil
}

func (e *hashEncoder) Name() string { return e.cfg.Name }
func (e *hashEncoder) Dim() int     { return e.cfg.Dim }

// stopwords are high-frequency function words damped during encoding so
// content words dominate similarity. Damped, not dropped: TruthfulQA
// reference answers are short, and negations ("not", "no") matter.
var stopwords = map[string]float64{
	"the": 0.1, "a": 0.1, "an": 0.1, "of": 0.1, "to": 0.15, "and": 0.15,
	"in": 0.15, "is": 0.2, "are": 0.2, "it": 0.2, "that": 0.2, "you": 0.2,
	"for": 0.2, "on": 0.2, "with": 0.2, "as": 0.2, "was": 0.2, "be": 0.2,
	"by": 0.2, "at": 0.2, "or": 0.25, "from": 0.25, "they": 0.25,
	"this": 0.25, "do": 0.3, "does": 0.3, "did": 0.3, "have": 0.3,
	"has": 0.3, "had": 0.3, "will": 0.3, "would": 0.3, "there": 0.3,
	"their": 0.3, "its": 0.3, "if": 0.3, "your": 0.3, "can": 0.35,
	"not": 0.9, "no": 0.9, "never": 0.9, "cannot": 0.9,
}

// Encode implements Encoder. It runs the incremental accumulator over
// the whole text in one Add: feature term frequencies are keyed by
// precomputed uint64 hashes (no per-feature string allocation, no sorted
// flush — determinism comes from committing features in text order with
// telescoping weight deltas, never iterating a map), which is both the
// fast path and the reference the chunked Accumulator is property-tested
// against.
func (e *hashEncoder) Encode(text string) Vector {
	acc := e.NewAccumulator()
	acc.Add(text)
	v := acc.Vector()
	acc.Release()
	return v
}

// featureScale keeps sublinear TF positive for damped (<1) frequencies.
func featureScale(tf float64) float64 {
	if tf >= 1 {
		return 1
	}
	return tf
}

// ---- Vector math -----------------------------------------------------

// Dot returns the inner product of a and b. Mismatched lengths use the
// shorter prefix, which callers prevent by construction.
func Dot(a, b Vector) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// Norm returns the L2 norm of v.
func Norm(v Vector) float64 { return math.Sqrt(Dot(v, v)) }

// Cosine returns the cosine similarity of a and b in [-1, 1]. Zero
// vectors have similarity 0 with everything.
func Cosine(a, b Vector) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// CosineUnit returns the cosine similarity of two vectors that are each
// either L2-normalized or zero — the unit-vector invariant every Encoder
// in this package guarantees for its output. Under that invariant cosine
// reduces to a single dot product (a zero vector dots to 0 with
// everything, matching Cosine's zero-vector convention), skipping the
// two Norm recomputations Cosine pays per call. Callers own the
// invariant: on unnormalized input the result is silently scaled.
func CosineUnit(a, b Vector) float64 { return Dot(a, b) }

// NormalizeInPlace scales v to unit length; the zero vector is unchanged.
func NormalizeInPlace(v Vector) {
	n := Norm(v)
	if n == 0 {
		return
	}
	inv := float32(1 / n)
	for i := range v {
		v[i] *= inv
	}
}

// Clone returns a copy of v.
func Clone(v Vector) Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Centroid returns the normalized mean of vs, or nil if vs is empty.
func Centroid(vs []Vector) Vector {
	if len(vs) == 0 {
		return nil
	}
	c := make(Vector, len(vs[0]))
	for _, v := range vs {
		for i := range c {
			if i < len(v) {
				c[i] += v[i]
			}
		}
	}
	inv := float32(1.0 / float64(len(vs)))
	for i := range c {
		c[i] *= inv
	}
	NormalizeInPlace(c)
	return c
}

// ---- Encoder registry --------------------------------------------------

// Built-in encoder profile names. The first two mirror the embedding
// models the paper serves through Ollama; the third is the compact
// default used throughout tests and examples.
const (
	ModelMxbai   = "mxbai-embed-large"
	ModelNomic   = "nomic-embed-text"
	ModelDefault = "llmms-minihash"
)

var (
	regMu    sync.RWMutex
	registry = map[string]Encoder{}
)

func init() {
	for _, cfg := range []Config{
		{Name: ModelMxbai, Dim: 1024, Seed: 0x6d786261, CharNGram: 4},
		{Name: ModelNomic, Dim: 768, Seed: 0x6e6f6d69, CharNGram: 3},
		{Name: ModelDefault, Dim: 256, Seed: 0x6c6c6d73, CharNGram: 3},
	} {
		enc, err := New(cfg)
		if err != nil {
			panic(err)
		}
		Register(enc)
	}
}

// Register makes enc available by name via Lookup. Re-registering a name
// replaces the previous encoder.
func Register(enc Encoder) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[enc.Name()] = enc
}

// Lookup returns the registered encoder with the given name.
func Lookup(name string) (Encoder, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	enc, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("embedding: unknown encoder %q", name)
	}
	return enc, nil
}

// Default returns the compact default encoder.
func Default() Encoder {
	enc, err := Lookup(ModelDefault)
	if err != nil {
		panic(err) // registered in init; unreachable
	}
	return enc
}
