package qcache

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"llmms/internal/embedding"
)

func jsonCodec() (func(any) ([]byte, error), func([]byte) (any, error)) {
	enc := func(v any) ([]byte, error) { return json.Marshal(v) }
	dec := func(raw []byte) (any, error) {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		return s, nil
	}
	return enc, dec
}

func TestWarmStartRoundTrip(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	c := newAt(Options{}, clock)
	keys := []Key{
		{Query: "What is the visa process?", Scope: "s1"},
		{Query: "how do goldfish remember", Scope: "s1"},
		{Query: "what is the visa process?", Scope: "s2"}, // same query, other scope
	}
	for i, k := range keys {
		c.Put(k, fmt.Sprintf("answer-%d", i))
	}
	enc, dec := jsonCodec()
	st := c.Snapshot("fp-v1", enc)
	if len(st.Entries) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(st.Entries))
	}
	path := filepath.Join(t.TempDir(), "qcache.json")
	if err := st.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	st2, err := ReadWarmState(path)
	if err != nil {
		t.Fatal(err)
	}

	fresh := newAt(Options{}, clock)
	if got := fresh.WarmStart(st2, "fp-v1", dec); got != 3 {
		t.Fatalf("restored %d entries, want 3", got)
	}
	for i, k := range keys {
		v, kind := fresh.Get(k)
		if kind != Exact {
			t.Fatalf("key %d: kind %v after warm start, want Exact", i, kind)
		}
		if v != fmt.Sprintf("answer-%d", i) {
			t.Fatalf("key %d: value %v", i, v)
		}
	}
	// The semantic tier came back too: a rephrasing hits in-scope.
	if _, kind := fresh.Get(Key{Query: "  WHAT is THE visa Process?  ", Scope: "s1"}); kind != Exact {
		t.Fatalf("normalized rephrasing: kind %v", kind)
	}
}

func TestWarmStartFingerprintMismatch(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	c := newAt(Options{}, clock)
	c.Put(Key{Query: "q", Scope: "s"}, "a")
	enc, dec := jsonCodec()
	st := c.Snapshot("fp-old", enc)

	fresh := newAt(Options{}, clock)
	if got := fresh.WarmStart(st, "fp-new", dec); got != 0 {
		t.Fatalf("restored %d entries across a settings change, want 0", got)
	}
	if fresh.Len() != 0 {
		t.Fatalf("cache holds %d entries after rejected warm start", fresh.Len())
	}
}

func TestWarmStartKeepsOriginalExpiry(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	c := newAt(Options{TTL: time.Minute}, clock)
	c.Put(Key{Query: "q", Scope: "s"}, "a")
	enc, dec := jsonCodec()
	st := c.Snapshot("fp", enc)

	// Restart 59s later: still servable...
	later := now.Add(59 * time.Second)
	fresh := newAt(Options{TTL: time.Minute}, func() time.Time { return later })
	if got := fresh.WarmStart(st, "fp", dec); got != 1 {
		t.Fatalf("restored %d, want 1", got)
	}
	if _, kind := fresh.Get(Key{Query: "q", Scope: "s"}); kind != Exact {
		t.Fatalf("kind %v within original TTL", kind)
	}
	// ...but a restart never extends an answer's life past its deadline.
	after := now.Add(61 * time.Second)
	stale := newAt(Options{TTL: time.Minute}, func() time.Time { return after })
	if got := stale.WarmStart(st, "fp", dec); got != 0 {
		t.Fatalf("restored %d expired entries, want 0", got)
	}
}

// TestWarmStartKeepsMostRecentlyUsed: a snapshot lists entries by last
// use — a hit counts, whichever segment holds the entry — and a cache too
// small for it restores the most recently used, in the same order.
func TestWarmStartKeepsMostRecentlyUsed(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	c := newAt(Options{}, clock)
	for i := 0; i < 4; i++ {
		c.Put(Key{Query: fmt.Sprintf("query number %d", i), Scope: "s"}, i)
	}
	if _, kind := c.Get(Key{Query: "query number 0", Scope: "s"}); kind != Exact {
		t.Fatal("warmup get missed")
	}
	enc := func(v any) ([]byte, error) { return json.Marshal(v) }
	dec := func(raw []byte) (any, error) {
		var n int
		err := json.Unmarshal(raw, &n)
		return n, err
	}
	order := func(st *WarmState) []string {
		var qs []string
		for _, we := range st.Entries {
			qs = append(qs, we.Query)
		}
		return qs
	}
	st := c.Snapshot("fp", enc)
	if got, want := order(st), []string{"query number 0", "query number 3", "query number 2", "query number 1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot order %q, want %q", got, want)
	}

	fresh := newAt(Options{Capacity: 2}, clock)
	if got := fresh.WarmStart(st, "fp", dec); got != 2 || fresh.Len() != 2 {
		t.Fatalf("restored %d, Len %d: want the 2 the cache holds", got, fresh.Len())
	}
	if got, want := order(fresh.Snapshot("fp", enc)), []string{"query number 0", "query number 3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %q, want %q", got, want)
	}
	if vc := vectorRows(t, fresh); vc != fresh.Len() {
		t.Fatalf("vector tier holds %d rows, entries %d", vc, fresh.Len())
	}
}

// TestWarmStartOverCapacityReportsWhatItHolds: a snapshot larger than the
// cache — the capacity was lowered between runs — restores its Capacity
// most recently used entries, embeds no others, and reports how many the
// cache holds.
func TestWarmStartOverCapacityReportsWhatItHolds(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	donor := newAt(Options{Capacity: 32}, clock)
	for i := 0; i < 20; i++ {
		donor.Put(Key{Query: fmt.Sprintf("question %d", i), Scope: "s"}, fmt.Sprint(i))
	}
	encode, decode := jsonCodec()
	st := donor.Snapshot("fp", encode)
	enc := &countingEncoder{Encoder: embedding.Default()}
	c := newAt(Options{Capacity: 8}, clock)
	c.enc = enc
	if got := c.WarmStart(st, "fp", decode); got != 8 || c.Len() != 8 {
		t.Fatalf("WarmStart = %d with Len %d, want 8 and 8", got, c.Len())
	}
	if n := enc.n.Load(); n != 8 {
		t.Fatalf("embedded %d entries to keep 8", n)
	}
	for i := 0; i < 20; i++ {
		if _, kind := c.Get(Key{Query: fmt.Sprintf("question %d", i), Scope: "s"}); (kind == Exact) != (i >= 12) {
			t.Fatalf("question %d: %v, want the 8 most recently used held", i, kind)
		}
	}
}

// vectorRows counts the semantic tier's rows, holding every bucket to its
// shape on the way: not empty, and each row under the id of a live entry of
// the bucket's scope that records that row.
func vectorRows(t *testing.T, c *Cache) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vmu.RLock()
	defer c.vmu.RUnlock()
	n := 0
	for scope, b := range c.buckets {
		if b.Len() == 0 {
			t.Fatalf("scope %q: empty bucket kept", scope)
		}
		for i := 0; i < b.Len(); i++ {
			e := c.entries[b.ID(i)]
			if e == nil || e.row != i || e.scope != scope {
				t.Fatalf("scope %q row %d holds %q, entry %+v", scope, i, b.ID(i), e)
			}
		}
		n += b.Len()
	}
	return n
}

// TestVectorTierTracksEvictions pins the two tiers to the same size:
// every path that drops an exact-tier entry (a candidate the policy
// refuses, a victim it evicts for one it admits, expiry, flush) must
// delete the matching semantic-tier row, or the index grows without bound.
func TestVectorTierTracksEvictions(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	c := newAt(Options{Capacity: 8, TTL: time.Minute}, clock)
	exactCounts(c)
	key := func(i int) Key { return Key{Query: fmt.Sprintf("distinct question %d", i), Scope: "s"} }
	for i := 0; i < 50; i++ {
		if i >= 40 {
			c.Get(key(i)) // asked for: admitted over an entry never asked for
		}
		c.Put(key(i), i)
	}
	if a, r := c.Admissions(); a == 0 || r == 0 {
		t.Fatalf("Admissions = (%d, %d): the fill no longer both admits and refuses", a, r)
	}
	if c.Len() != 8 {
		t.Fatalf("len %d, want capacity 8", c.Len())
	}
	if vc := vectorRows(t, c); vc != 8 {
		t.Fatalf("vector tier holds %d rows after evictions, want 8", vc)
	}
	// Expiry path: entries are dropped from both tiers on contact.
	now = now.Add(2 * time.Minute)
	for i := 0; i < 50; i++ {
		if _, kind := c.Get(key(i)); kind != Miss {
			t.Fatalf("expired entry %d served (kind %v)", i, kind)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("len %d after expiry sweep, want 0", c.Len())
	}
	if vc := vectorRows(t, c); vc != 0 {
		t.Fatalf("vector tier holds %d rows after expiry, want 0", vc)
	}
	// Flush path.
	now = now.Add(-2 * time.Minute)
	for i := 0; i < 8; i++ {
		c.Put(key(i), i)
	}
	c.Flush()
	if vc := vectorRows(t, c); vc != 0 {
		t.Fatalf("vector tier holds %d rows after Flush, want 0", vc)
	}
}

// TestSemanticTierDropsEmptyBuckets bounds the index by the live scopes: a
// scope whose last entry leaves — evicted, expired or flushed — keeps no
// bucket behind.
func TestSemanticTierDropsEmptyBuckets(t *testing.T) {
	now := time.Now()
	c := newAt(Options{Capacity: 4, TTL: time.Minute}, func() time.Time { return now })
	exactCounts(c)
	buckets := func() int {
		c.vmu.RLock()
		defer c.vmu.RUnlock()
		return len(c.buckets)
	}
	c.Put(Key{Query: "a lonely question", Scope: "lonely"}, 0)
	// Asked for before they are stored, as the server does: the last one
	// is admitted over the lonely entry, asked for never.
	for i := 0; i < 4; i++ {
		k := Key{Query: fmt.Sprintf("distinct question %d", i), Scope: "busy"}
		c.Get(k)
		c.Put(k, i)
	}
	if n := buckets(); n != 1 || vectorRows(t, c) != 4 {
		t.Fatalf("%d buckets after the lonely scope's entry was evicted, want the busy one only", n)
	}
	c.Put(Key{Query: "an expiring question", Scope: "brief"}, 0)
	now = now.Add(2 * time.Minute)
	c.Get(Key{Query: "an expiring question", Scope: "brief"})
	if c.Len() != 3 || vectorRows(t, c) != 3 {
		t.Fatalf("len %d after expiry", c.Len())
	}
	c.vmu.RLock()
	_, kept := c.buckets["brief"]
	c.vmu.RUnlock()
	if kept {
		t.Fatal("an expired scope's bucket was kept")
	}
	c.Flush()
	if n := buckets(); n != 0 {
		t.Fatalf("%d buckets after Flush, want 0", n)
	}
}

// countingEncoder counts Encode calls. It hides its inner encoder's
// accumulators, so every Borrow through it is an Encode.
type countingEncoder struct {
	embedding.Encoder
	n atomic.Int64
}

func (e *countingEncoder) Encode(text string) embedding.Vector {
	e.n.Add(1)
	return e.Encoder.Encode(text)
}

// TestDisabledSemanticTierHoldsNoRows: with the semantic tier off (a
// threshold above 1), Put, PutAt and WarmStart embed nothing and keep no
// row, and exact hits, eviction, the drop passes and Flush answer as they
// do on a cache whose tier is on, asked only exact repeats.
func TestDisabledSemanticTierHoldsNoRows(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	run := func(c *Cache) []any {
		var out []any
		for i := 0; i < 6; i++ {
			c.Put(Key{Query: fmt.Sprintf("Distinct question %d", i), Scope: "s"}, i)
		}
		c.PutAt(Key{Query: "grounded question", Scope: "rag"}, "g", c.Gen(), &Grounding{Docs: []string{"a"}, Kth: math.Inf(1)})
		encode, decode := jsonCodec()
		warm := newAt(Options{}, clock)
		warm.Put(Key{Query: "a warm question", Scope: "w"}, "warm")
		out = append(out, c.WarmStart(warm.Snapshot("fp", encode), "fp", decode))
		for _, q := range []string{"distinct  question 5", "Distinct question 0", "distinct question 4", "grounded question", "a warm question"} {
			for _, scope := range []string{"s", "rag", "w"} {
				v, kind := c.Get(Key{Query: q, Scope: scope})
				out = append(out, v, kind)
			}
		}
		out = append(out, c.Len(), c.DropUpload("b", nil), c.DropDoc("a"), c.Len(), c.Flush(), c.Len())
		return out
	}
	enc := &countingEncoder{Encoder: embedding.Default()}
	off := newAt(Options{Capacity: 4, SemanticThreshold: 2}, clock)
	off.enc = enc
	got := run(off)
	want := run(newAt(Options{Capacity: 4}, clock))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tier off answers\n%v\nwant, as with the tier on,\n%v", got, want)
	}
	if n := enc.n.Load(); n != 0 {
		t.Fatalf("a cache with the semantic tier off embedded %d times", n)
	}
	off.vmu.RLock()
	defer off.vmu.RUnlock()
	if len(off.buckets) != 0 || len(off.spares) != 0 {
		t.Fatalf("a cache with the semantic tier off holds %d buckets and %d spares", len(off.buckets), len(off.spares))
	}
}
