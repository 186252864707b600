package qcache

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
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

// newAt is New on a clock the test controls.
func newAt(opts Options, clock func() time.Time) *Cache {
	c := New(opts)
	c.clock = clock
	return c
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
	c := newAt(Options{TTL: time.Minute}, clock)
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
	c2 := newAt(Options{TTL: time.Minute, SemanticThreshold: 0.3}, clock)
	c2.Put(Key{Query: "what is the capital of france", Scope: "s"}, "paris")
	now = now.Add(2 * time.Minute)
	if _, kind := c2.Get(Key{Query: "what is the capital city of france", Scope: "s"}); kind != Miss {
		t.Fatal("semantic tier served an expired entry")
	}
}

func TestPutRefreshesTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newAt(Options{TTL: time.Minute}, func() time.Time { return now })
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

// TestEvictionAdmitsByFrequency: at capacity, a one-off question passes
// through the window and is refused at the main region's door, so a scan
// of them leaves every answer asked for again in place — where an LRU of
// the same capacity would hold only the scan — while a question asked for
// more often than the main region's victim is admitted in its place.
func TestEvictionAdmitsByFrequency(t *testing.T) {
	c := New(Options{Capacity: 10, SemanticThreshold: 2}) // window 1, main 9
	exactCounts(c)
	ask := func(q string) HitKind {
		key := Key{Query: q, Scope: "s"}
		_, kind := c.Get(key)
		if kind == Miss {
			c.Put(key, q)
		}
		return kind
	}
	hot := func(i int) string { return fmt.Sprintf("hot question %d", i) }
	for round := 0; round < 4; round++ {
		for i := 0; i < 9; i++ {
			if kind := ask(hot(i)); (kind == Miss) != (round == 0) {
				t.Fatalf("round %d: %s was a %v", round, hot(i), kind)
			}
		}
	}
	for i := 0; i < 20; i++ {
		if kind := ask(fmt.Sprintf("one-off question %d", i)); kind != Miss {
			t.Fatalf("one-off question %d was a %v", i, kind)
		}
		if c.Len() > 10 {
			t.Fatalf("Len = %d over capacity 10", c.Len())
		}
	}
	for i := 0; i < 9; i++ {
		if _, kind := c.Get(Key{Query: hot(i), Scope: "s"}); kind != Exact {
			t.Fatalf("the scan pushed %s out", hot(i))
		}
	}
	// The first one-off found room in the main region; the other 19 each
	// met a full one as the window's oldest entry, and were refused.
	if a, r := c.Admissions(); a != 0 || r != 19 {
		t.Fatalf("Admissions = (%d, %d), want (0, 19)", a, r)
	}

	// Asked for ten times, a question beats a hot answer asked for five.
	for i := 0; i < 9; i++ {
		c.Get(Key{Query: "a popular question", Scope: "s"})
	}
	ask("a popular question")
	ask("a question that pushes it out of the window")
	if a, r := c.Admissions(); a != 1 || r != 20 {
		t.Fatalf("Admissions = (%d, %d), want (1, 20)", a, r)
	}
	if _, kind := c.Get(Key{Query: "a popular question", Scope: "s"}); kind != Exact {
		t.Fatal("the popular question was refused")
	}
	held := 0
	for i := 0; i < 9; i++ {
		if _, kind := c.Get(Key{Query: hot(i), Scope: "s"}); kind == Exact {
			held++
		}
	}
	if held != 8 || c.Len() != 10 {
		t.Fatalf("%d hot answers held of %d entries, want 8 of 10: one victim", held, c.Len())
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

// refCache is the reference: the Cache's policy as a plain model — its
// segments are slices of ids, front first, searched by linear scans, and
// it counts lookups in its own sketch, seeded as the Cache's is — over
// the semantic tier as it was, a vectordb cosine collection filtered to
// the key's scope by a metadata equality. TestSemanticTierMatchesReference
// holds the Cache to it. It is sequential: only the differential test
// drives it.
type refCache struct {
	opts                         Options
	clock                        func() time.Time
	entries                      map[string]*refEntry
	window, probation, protected []string
	sketch                       *sketch
	vectors                      *vectordb.Collection
}

type refEntry struct {
	value   any
	expires time.Time
}

func newRefCache(t *testing.T, opts Options, clock func() time.Time, seed maphash.Seed) *refCache {
	col, err := vectordb.New().CreateCollection("qcache", vectordb.CollectionConfig{Encoder: embedding.Default()})
	if err != nil {
		t.Fatal(err)
	}
	return &refCache{opts: opts, clock: clock, entries: map[string]*refEntry{}, sketch: newSketch(opts.Capacity, seed), vectors: col}
}

func (c *refCache) get(key Key) (any, HitKind) {
	now := c.clock()
	nq := normalizeRef(key.Query)
	id := nq + keySep + key.Scope
	c.sketch.add(c.sketch.hash(id))
	if e, ok := c.entries[id]; ok {
		if now.Before(e.expires) {
			c.touch(id)
			return e.value, Exact
		}
		c.remove(id)
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
			c.remove(r.ID)
			continue
		}
		c.sketch.add(c.sketch.hash(r.ID))
		c.touch(r.ID)
		return e.value, Semantic
	}
	return nil, Miss
}

func (c *refCache) put(key Key, value any) {
	nq := normalizeRef(key.Query)
	id := nq + keySep + key.Scope
	expires := c.clock().Add(c.opts.TTL)
	if e, ok := c.entries[id]; ok {
		e.value, e.expires = value, expires
		c.touch(id)
		return
	}
	c.entries[id] = &refEntry{value: value, expires: expires}
	_ = c.vectors.Upsert(vectordb.Document{ID: id, Text: nq, Metadata: vectordb.Metadata{"scope": key.Scope}})
	c.window = slices.Insert(c.window, 0, id)
	window := max(1, c.opts.Capacity/100)
	if len(c.window) <= window {
		return
	}
	cand := c.window[len(c.window)-1]
	if len(c.probation)+len(c.protected) >= c.opts.Capacity-window {
		if len(c.probation) == 0 {
			c.remove(cand)
			return
		}
		victim := c.probation[len(c.probation)-1]
		if c.sketch.estimate(c.sketch.hash(cand)) <= c.sketch.estimate(c.sketch.hash(victim)) {
			c.remove(cand)
			return
		}
		c.remove(victim)
	}
	c.window = c.window[:len(c.window)-1]
	c.probation = slices.Insert(c.probation, 0, cand)
}

// touch moves id to the front of its segment, or from probation to the
// front of protected, whose last id goes back to probation's front when
// protected holds more than 80 % of the main region.
func (c *refCache) touch(id string) {
	for _, seg := range []*[]string{&c.window, &c.protected} {
		if i := slices.Index(*seg, id); i >= 0 {
			*seg = slices.Insert(slices.Delete(*seg, i, i+1), 0, id)
			return
		}
	}
	i := slices.Index(c.probation, id)
	c.probation = slices.Delete(c.probation, i, i+1)
	c.protected = slices.Insert(c.protected, 0, id)
	if len(c.protected) > (c.opts.Capacity-max(1, c.opts.Capacity/100))*80/100 {
		last := c.protected[len(c.protected)-1]
		c.protected = c.protected[:len(c.protected)-1]
		c.probation = slices.Insert(c.probation, 0, last)
	}
}

func (c *refCache) flush() {
	for id := range c.entries {
		c.vectors.Delete(id)
	}
	c.entries = map[string]*refEntry{}
	c.window, c.probation, c.protected = nil, nil, nil
}

func (c *refCache) remove(id string) {
	delete(c.entries, id)
	for _, seg := range []*[]string{&c.window, &c.probation, &c.protected} {
		if i := slices.Index(*seg, id); i >= 0 {
			*seg = slices.Delete(*seg, i, i+1)
		}
	}
	c.vectors.Delete(id)
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
// three scopes, at a capacity that keeps the policy admitting, refusing
// and evicting and a TTL the clock keeps crossing, and requires the same
// (value, HitKind) from every Get.
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
	opts := Options{Capacity: 6, TTL: time.Minute, SemanticThreshold: threshold}
	clock := func() time.Time { return now }
	c := newAt(opts, clock)
	ref := newRefCache(t, opts, clock, c.sketch.seed)
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
		if op%1000 == 0 {
			policyShape(t, c)
		}
	}
	if kinds[Exact] < 100 || kinds[Semantic] < 100 || kinds[Miss] < 100 {
		t.Fatalf("outcomes %v: the sequence no longer exercises every tier", kinds)
	}
	if a, r := c.Admissions(); a < 100 || r < 100 {
		t.Fatalf("%d admitted, %d refused: the sequence no longer exercises the policy", a, r)
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
