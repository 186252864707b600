package qcache

import (
	"container/list"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode"

	"llmms/internal/embedding"
	"llmms/internal/vectordb"
)

// normalizeRef is the reference Normalize: the three-pass expression the
// single walk replaced. FuzzNormalize holds the two byte-equal.
func normalizeRef(q string) string {
	return strings.ToLower(strings.Join(strings.FieldsFunc(q, unicode.IsSpace), " "))
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"  What   is\tGo? ": "what is go?",
		"what is go?":       "what is go?",
		"WHAT\nIS\nGO?":     "what is go?",
		"":                  "",
		"   ":               "",
		"one":               "one",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

// FuzzNormalize: for any input, including Unicode white space, case maps
// that change a rune's encoded length and invalid UTF-8, Normalize is
// byte for byte the reference.
func FuzzNormalize(f *testing.F) {
	for _, q := range []string{
		"  What   is\tGo? ", "what is go?", "",
		"\u00a0NBSP\u2003em space\u3000ideographic\u0085NEL\u2028",
		"İstanbul \u212a KELVIN", "ȺȾ grow when lowered",
		"bad \xff utf8 \xc3", "cut \xe2\x80", " \xe3\x80\xe3\x80\x80 ", "\ufffd kept",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		if got, want := Normalize(q), normalizeRef(q); got != want {
			t.Fatalf("Normalize(%q) = %q, want %q", q, got, want)
		}
	})
}

// TestNormalizeAllocs: a query already in normal form costs nothing, any
// other one allocation — its exactly sized result.
func TestNormalizeAllocs(t *testing.T) {
	for q, want := range map[string]float64{
		"what is go?": 0, "   ": 0,
		"  What   is\tGo? ": 1, "İstanbul": 1, "ȺȾ": 1, "bad \xff": 1,
	} {
		if n := testing.AllocsPerRun(100, func() { Normalize(q) }); n != want {
			t.Errorf("Normalize(%q): %v allocations, want %v", q, n, want)
		}
	}
}

func TestExactHit(t *testing.T) {
	c := New(Options{})
	key := Key{Query: "What is Go?", Scope: "oua|a,b|256"}
	if _, kind := c.Get(key); kind != Miss {
		t.Fatalf("empty cache Get = %v, want Miss", kind)
	}
	c.Put(key, "answer")
	v, kind := c.Get(key)
	if kind != Exact || v != "answer" {
		t.Fatalf("Get = (%v, %v), want (answer, Exact)", v, kind)
	}
	// Reformatted duplicates collide in the exact tier.
	v, kind = c.Get(Key{Query: "  what   IS go? ", Scope: key.Scope})
	if kind != Exact || v != "answer" {
		t.Fatalf("normalized Get = (%v, %v), want (answer, Exact)", v, kind)
	}
	// A different scope is a different answer.
	if _, kind := c.Get(Key{Query: key.Query, Scope: "other"}); kind == Exact {
		t.Fatal("scope mismatch served an exact hit")
	}
}

func TestSemanticHit(t *testing.T) {
	// A permissive threshold so the hashing encoder's similarity between
	// near-duplicate phrasings clears the bar deterministically.
	c := New(Options{SemanticThreshold: 0.3})
	key := Key{Query: "what is the capital of france", Scope: "s"}
	c.Put(key, "paris")

	v, kind := c.Get(Key{Query: "what is the capital city of france", Scope: "s"})
	if kind != Semantic || v != "paris" {
		t.Fatalf("Get = (%v, %v), want (paris, Semantic)", v, kind)
	}
	// Same rephrasing in a different scope must miss: scopes are not
	// semantically comparable.
	if _, kind := c.Get(Key{Query: "what is the capital city of france", Scope: "other"}); kind != Miss {
		t.Fatalf("cross-scope semantic Get = %v, want Miss", kind)
	}
}

func TestSemanticThresholdRejects(t *testing.T) {
	c := New(Options{}) // default 0.97
	c.Put(Key{Query: "what is the capital of france", Scope: "s"}, "paris")
	if _, kind := c.Get(Key{Query: "how do neural networks learn", Scope: "s"}); kind != Miss {
		t.Fatalf("unrelated query Get = %v, want Miss", kind)
	}
}

func TestSemanticTierDisabled(t *testing.T) {
	c := New(Options{SemanticThreshold: 2})
	c.Put(Key{Query: "what is go", Scope: "s"}, "a language")
	// Byte-identical still hits (exact tier)...
	if _, kind := c.Get(Key{Query: "what is go", Scope: "s"}); kind != Exact {
		t.Fatal("exact tier should survive a disabled semantic tier")
	}
	// ...but nothing else can.
	if _, kind := c.Get(Key{Query: "what is go please", Scope: "s"}); kind != Miss {
		t.Fatal("semantic tier served a hit while disabled")
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := New(Options{TTL: time.Minute, Clock: clock})
	key := Key{Query: "q", Scope: "s"}
	c.Put(key, "v")

	now = now.Add(59 * time.Second)
	if _, kind := c.Get(key); kind != Exact {
		t.Fatal("entry expired before its TTL")
	}
	// Get does not extend the TTL: 61s past Put is expired.
	now = now.Add(2 * time.Second)
	if _, kind := c.Get(key); kind != Miss {
		t.Fatal("expired entry was served")
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("expired entry lingers: Len = %d", got)
	}
	// The semantic tier must not resurrect it either.
	c2 := New(Options{TTL: time.Minute, Clock: clock, SemanticThreshold: 0.3})
	c2.Put(Key{Query: "what is the capital of france", Scope: "s"}, "paris")
	now = now.Add(2 * time.Minute)
	if _, kind := c2.Get(Key{Query: "what is the capital city of france", Scope: "s"}); kind != Miss {
		t.Fatal("semantic tier served an expired entry")
	}
}

func TestPutRefreshesTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	c := New(Options{TTL: time.Minute, Clock: func() time.Time { return now }})
	key := Key{Query: "q", Scope: "s"}
	c.Put(key, "v1")
	now = now.Add(45 * time.Second)
	c.Put(key, "v2")
	now = now.Add(45 * time.Second) // 90s after first Put, 45s after refresh
	v, kind := c.Get(key)
	if kind != Exact || v != "v2" {
		t.Fatalf("Get = (%v, %v), want (v2, Exact)", v, kind)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Options{Capacity: 3})
	for i := 0; i < 3; i++ {
		c.Put(Key{Query: fmt.Sprintf("query number %d", i), Scope: "s"}, i)
	}
	// Touch 0 so 1 becomes the LRU victim.
	if _, kind := c.Get(Key{Query: "query number 0", Scope: "s"}); kind != Exact {
		t.Fatal("warmup get missed")
	}
	c.Put(Key{Query: "query number 3", Scope: "s"}, 3)
	if got := c.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if _, kind := c.Get(Key{Query: "query number 1", Scope: "s"}); kind != Miss {
		t.Fatal("LRU entry 1 survived eviction")
	}
	for _, q := range []string{"query number 0", "query number 2", "query number 3"} {
		if _, kind := c.Get(Key{Query: q, Scope: "s"}); kind != Exact {
			t.Fatalf("entry %q was evicted, want kept", q)
		}
	}
}

func TestFlush(t *testing.T) {
	c := New(Options{SemanticThreshold: 0.3})
	c.Put(Key{Query: "what is the capital of france", Scope: "s"}, "paris")
	c.Flush()
	if got := c.Len(); got != 0 {
		t.Fatalf("Len after Flush = %d", got)
	}
	if _, kind := c.Get(Key{Query: "what is the capital of france", Scope: "s"}); kind != Miss {
		t.Fatal("exact tier survived Flush")
	}
	if _, kind := c.Get(Key{Query: "what is the capital city of france", Scope: "s"}); kind != Miss {
		t.Fatal("semantic tier survived Flush")
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache
	c.Put(Key{Query: "q"}, "v") // must not panic
	if _, kind := c.Get(Key{Query: "q"}); kind != Miss {
		t.Fatal("nil cache hit")
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatal("nil cache Len != 0")
	}
}

// refCache is the reference semantic tier: the Cache as it was, over a
// vectordb cosine collection filtered to the key's scope by a metadata
// equality. TestSemanticTierMatchesReference holds the Cache's own index
// to it. It is sequential: only the differential test drives it.
type refCache struct {
	opts    Options
	entries map[string]*refEntry
	lru     *list.List
	vectors *vectordb.Collection
}

type refEntry struct {
	id      string
	value   any
	expires time.Time
	elem    *list.Element
}

func newRefCache(t *testing.T, opts Options) *refCache {
	col, err := vectordb.New().CreateCollection("qcache", vectordb.CollectionConfig{
		Metric: vectordb.Cosine, Encoder: embedding.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &refCache{opts: opts, entries: map[string]*refEntry{}, lru: list.New(), vectors: col}
}

func (c *refCache) get(key Key) (any, HitKind) {
	now := c.opts.Clock()
	nq := normalizeRef(key.Query)
	if e, ok := c.entries[nq+keySep+key.Scope]; ok {
		if now.Before(e.expires) {
			c.lru.MoveToFront(e.elem)
			return e.value, Exact
		}
		c.remove(e)
	}
	res, err := c.vectors.Query(vectordb.QueryRequest{
		Text: nq, TopK: 3, Where: vectordb.Metadata{"scope": key.Scope},
	})
	if err != nil {
		return nil, Miss
	}
	for _, r := range res {
		if r.Similarity < c.opts.SemanticThreshold {
			break
		}
		e := c.entries[r.ID]
		if !now.Before(e.expires) {
			c.remove(e)
			continue
		}
		c.lru.MoveToFront(e.elem)
		return e.value, Semantic
	}
	return nil, Miss
}

func (c *refCache) put(key Key, value any) {
	nq := normalizeRef(key.Query)
	id := nq + keySep + key.Scope
	expires := c.opts.Clock().Add(c.opts.TTL)
	if e, ok := c.entries[id]; ok {
		e.value, e.expires = value, expires
		c.lru.MoveToFront(e.elem)
		return
	}
	for len(c.entries) >= c.opts.Capacity {
		c.remove(c.lru.Back().Value.(*refEntry))
	}
	e := &refEntry{id: id, value: value, expires: expires}
	e.elem = c.lru.PushFront(e)
	c.entries[id] = e
	_ = c.vectors.Upsert(vectordb.Document{ID: id, Text: nq, Metadata: vectordb.Metadata{"scope": key.Scope}})
}

func (c *refCache) flush() {
	for id := range c.entries {
		c.vectors.Delete(id)
	}
	c.entries = map[string]*refEntry{}
	c.lru.Init()
}

func (c *refCache) remove(e *refEntry) {
	delete(c.entries, e.id)
	c.lru.Remove(e.elem)
	c.vectors.Delete(e.id)
}

// families are the test's queries: each a question with its paraphrases
// (verified above the test threshold) and punctuation variants, which
// normalize apart but embed identically — exact distance ties, broken on
// the id.
var families = [][]string{
	{"what is the capital of france", "What is the capital of France?", "what is the capital of france!", "what is the capital city of france", "the capital of france is what"},
	{"how do goldfish remember things", "How do goldfish remember things?", "how do goldfish remember things!", "how do goldfish remember", "how do goldfish remember many things"},
	{"are bats blind", "Are  bats blind?", "are bats blind!", "are bats really blind", "are all bats blind"},
	{"why is the sky blue", "why is the sky blue?", "WHY is the sky blue!", "why is the sky so blue", "why is the sky blue at noon"},
}

// TestSemanticTierMatchesReference drives the Cache and the reference
// through one seeded sequence of Puts, Gets, Flushes and clock steps over
// three scopes, at a capacity that keeps the LRU evicting and a TTL the
// clock keeps crossing, and requires the same (value, HitKind) from every
// Get.
func TestSemanticTierMatchesReference(t *testing.T) {
	const threshold = 0.5
	enc := embedding.Default()
	for _, fam := range families {
		base := enc.Encode(normalizeRef(fam[0]))
		for _, q := range fam[1:] {
			if sim := embedding.Cosine(base, enc.Encode(normalizeRef(q))); sim < threshold {
				t.Fatalf("%q is %.3f from %q, under the threshold: not a paraphrase here", q, sim, fam[0])
			}
		}
	}
	now := time.Unix(1000, 0)
	opts := Options{Capacity: 6, TTL: time.Minute, SemanticThreshold: threshold, Clock: func() time.Time { return now }}
	c, ref := New(opts), newRefCache(t, opts)
	scopes := []string{"oua|a,b|256", "mab|a,b|256", "oua|a|128"}
	rng := rand.New(rand.NewSource(1))
	key := func() Key {
		fam := families[rng.Intn(len(families))]
		return Key{Query: fam[rng.Intn(len(fam))], Scope: scopes[rng.Intn(len(scopes))]}
	}
	kinds := map[HitKind]int{}
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(100); {
		case r < 40:
			k := key()
			c.Put(k, op)
			ref.put(k, op)
		case r < 90:
			k := key()
			v, kind := c.Get(k)
			rv, rkind := ref.get(k)
			if v != rv || kind != rkind {
				t.Fatalf("op %d: Get(%+v) = (%v, %v), reference (%v, %v)", op, k, v, kind, rv, rkind)
			}
			kinds[kind]++
		case r < 99:
			now = now.Add(time.Duration(rng.Intn(20)) * time.Second)
		default:
			c.Flush()
			ref.flush()
		}
		if op%1000 == 0 && vectorRows(t, c) != c.Len() {
			t.Fatalf("op %d: %d vector rows for %d entries", op, vectorRows(t, c), c.Len())
		}
	}
	if kinds[Exact] < 100 || kinds[Semantic] < 100 || kinds[Miss] < 100 {
		t.Fatalf("outcomes %v: the sequence no longer exercises every tier", kinds)
	}
}

// TestSemanticProbeRacesEviction runs semantic probes against a writer
// that keeps putting past capacity, refreshing entries and flushing. Each
// writer generation's entries carry the generation and are flushed before
// the next begins, so a probe that starts after generation g was flushed
// must never be served a value below g+1. Under -race it also holds the
// probe's unlocked scan apart from every write to an entry or a bucket.
func TestSemanticProbeRacesEviction(t *testing.T) {
	c := New(Options{Capacity: 8, SemanticThreshold: 0.5})
	var gen atomic.Int64
	var semantic atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				floor := gen.Load()
				fam := families[i%len(families)]
				v, kind := c.Get(Key{Query: fam[3+i%2], Scope: "s"})
				if kind == Semantic {
					semantic.Add(1)
				}
				if kind != Miss && v.(int64) < floor {
					t.Errorf("a probe begun after generation %d was flushed was served generation %d", floor-1, v)
					return
				}
			}
		}(p)
	}
	for g := int64(0); g < 300; g++ {
		for round := 0; round < 2; round++ { // the second round refreshes what the first left
			for _, fam := range families {
				for _, q := range fam[:3] {
					c.Put(Key{Query: q, Scope: "s"}, g)
				}
			}
		}
		c.Flush()
		gen.Store(g + 1)
	}
	close(stop)
	wg.Wait()
	if semantic.Load() == 0 {
		t.Fatal("no probe was served a semantic hit; nothing raced")
	}
}
