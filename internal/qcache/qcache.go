// Package qcache implements the cross-query serving layer of LLM-MS:
// the machinery that lets the platform absorb heavy repeated traffic
// without paying a full multi-model orchestration per request.
//
// Three cooperating pieces live here, each usable on its own:
//
//   - Cache: a two-tier answer cache. The exact tier is a TTL map keyed
//     on the normalized query plus an opaque scope string (strategy, model
//     set, token budget, RAG fingerprint — everything non-semantic that
//     changes the answer), bounded by W-TinyLFU (policy.go): a small
//     window LRU, a segmented main region, and a frequency sketch of the
//     lookups that admits the window's oldest entry only when it is asked
//     for more often than the main region's victim, so a scan of one-off
//     questions cannot push the answers asked for again and again out.
//     The semantic tier embeds the normalized query with an
//     embedding.Encoder and scans its own scope's bucket of cached query
//     vectors, returning a near-duplicate's answer when cosine similarity
//     clears a configurable threshold. This is the
//     bounded-staleness trade the networked-LLM literature motivates: a
//     semantically equivalent answer now instead of an identical answer
//     after a full fan-out. A document write drops exactly the answers
//     whose retrieval, recorded as their Grounding, it can change.
//
//   - Group/Flight: singleflight-style coalescing for streaming
//     responses. The first request for a key becomes the leader and
//     publishes every frame it streams into a bounded broadcast buffer;
//     identical requests arriving while the leader is in flight replay
//     that buffer (history first, then live) and share the leader's
//     result, so one orchestration serves every concurrent duplicate
//     with full streaming semantics.
//
//   - Gate: admission control. A weighted semaphore bounds the total
//     concurrent orchestration weight (callers weigh a query by its
//     fan-out width) with a small context-aware FIFO wait queue in
//     front; when the queue is full, Acquire fails fast so the server
//     can shed load with 429 + Retry-After instead of collapsing.
//
// The package is deliberately value-agnostic: cached values and flight
// results are `any`, so the application layer decides what an "answer"
// is (the server stores recorded SSE frames plus the final result).
package qcache

import (
	"hash/maphash"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"

	"llmms/internal/embedding"
)

// Defaults for Options fields left zero.
const (
	// DefaultCapacity bounds the exact-tier entry count.
	DefaultCapacity = 256
	// DefaultTTL is the entry lifetime.
	DefaultTTL = 5 * time.Minute
	// DefaultSemanticThreshold is the cosine similarity above which two
	// distinct queries are close enough to share an answer. 0.97 is
	// deliberately conservative: with the hashing encoder it admits
	// trivial rephrasings (case, punctuation, stopword shuffles) while
	// rejecting queries that differ in any content word.
	DefaultSemanticThreshold = 0.97
)

// keySep joins the normalized query and the scope into one exact-tier
// key; it cannot appear in either part (queries are normalized to
// printable text, scopes are caller-built ASCII).
const keySep = "\x1f"

// Key identifies one cacheable answer.
type Key struct {
	// Query is the raw user query; it is normalized (lowercased,
	// whitespace-collapsed) before use, so trivially reformatted
	// duplicates collide in the exact tier.
	Query string
	// Scope is everything non-semantic that changes the answer: the
	// caller packs strategy, model set, token budget, scoring weights,
	// and the RAG fingerprint into this opaque string. Two keys match —
	// exactly or semantically — only within the same scope.
	Scope string
}

// ID returns the canonical identity string of the key: the normalized
// query joined with the scope. It doubles as the coalescing key and the
// exact tier's map key.
func (k Key) ID() string { return Normalize(k.Query) + keySep + k.Scope }

// Normalize canonicalizes a query for exact-tier matching: lowercased as
// strings.ToLower does it (invalid UTF-8 becomes U+FFFD), whitespace runs
// collapsed to one space and trimmed. One scan sizes the result, a second
// writes it: one allocation, none when q is normal already.
func Normalize(q string) string {
	n, same := normalForm(q, nil)
	if same {
		return q
	}
	var b strings.Builder
	b.Grow(n)
	normalForm(q, &b)
	return b.String()
}

// normalForm writes q's normal form to b unless b is nil, and reports its
// length and whether it is q: every piece matches q where it lands.
func normalForm(q string, b *strings.Builder) (n int, same bool) {
	same, gap := true, false
	var buf [1 + utf8.UTFMax]byte
	for _, r := range q {
		if unicode.IsSpace(r) {
			gap = n > 0
			continue
		}
		p := buf[:0]
		if gap {
			p, gap = append(p, ' '), false
		}
		p = utf8.AppendRune(p, unicode.ToLower(r))
		same = same && n+len(p) <= len(q) && q[n:n+len(p)] == string(p)
		if b != nil {
			b.Write(p)
		}
		n += len(p)
	}
	return n, same && n == len(q)
}

// HitKind classifies a cache lookup.
type HitKind int

// Lookup outcomes.
const (
	// Miss means no usable entry exists.
	Miss HitKind = iota
	// Exact means the normalized query matched an entry byte-for-byte.
	Exact
	// Semantic means a distinct query's entry matched above the
	// similarity threshold.
	Semantic
)

// Options tunes a Cache. The zero value takes every default.
type Options struct {
	// Capacity bounds the number of entries. At the bound a new entry is
	// kept in place of the main region's least recently used probationary
	// entry only when lookups have asked for it more often (W-TinyLFU);
	// the window and segment shares are fixed fractions of it.
	// Non-positive means DefaultCapacity.
	Capacity int
	// TTL is how long an entry stays servable. Non-positive means
	// DefaultTTL.
	TTL time.Duration
	// SemanticThreshold is the minimum cosine similarity for a semantic
	// hit. Zero means DefaultSemanticThreshold; a value > 1 disables the
	// semantic tier outright (cosine similarity never exceeds 1).
	SemanticThreshold float64
}

// entry is one cached answer with its bookkeeping.
type entry struct {
	id      string // Key.ID()
	scope   string
	value   any
	expires time.Time
	g       *Grounding // nil: the answer uses no documents
	row     int        // the entry's row in its scope's bucket, under Cache.vmu

	// Policy state, under Cache.mu: the segment list the entry is on, the
	// sketch's hash of its id, and the tick of its last use.
	seg        *segment
	prev, next *entry
	hash       uint64
	used       uint64
}

// Grounding is what an answer's retrieval of the top-k chunks, by cosine
// distance 1 − ⟨q, v⟩ and then id, depended on. It is never modified once
// stored.
type Grounding struct {
	Docs   []string         // the documents of the chunks
	Kth    float64          // the k-th chunk's distance; +Inf when fewer than k came back
	Filter string           // the one document admitted; "" admits all
	Query  embedding.Vector // the unit vector searched with; may be nil when Kth is +Inf
}

// everyDoc grounds a restored answer, whose grounding is not persisted.
var everyDoc = &Grounding{Kth: math.Inf(1)}

// Cache is the two-tier answer cache. All methods are safe for
// concurrent use; a nil *Cache is inert (Get always misses, Put and
// Flush are no-ops), so callers can wire it unconditionally.
type Cache struct {
	capacity  int
	ttl       time.Duration
	threshold float64
	clock     func() time.Time  // time.Now; in-package tests stop it
	enc       embedding.Encoder // embedding.Default(), which embeds normalized queries

	mu      sync.Mutex
	entries map[string]*entry
	gen     atomic.Uint64 // advanced under mu by Flush and every drop pass

	// The W-TinyLFU policy (policy.go), under mu: every entry is on exactly
	// one segment.
	window, probation, protected segment
	windowMax, protectedMax      int
	sketch                       *sketch
	tick                         uint64 // last-use clock, for Snapshot's order
	admitted, rejected           atomic.Uint64

	// vmu guards the semantic tier: writers take it inside mu, a probe
	// alone, so a probe never holds the lock an exact hit needs. A scope's
	// bucket holds its entries' unit vectors under their ids; none is ever
	// empty, and none is kept while the tier is off.
	vmu     sync.RWMutex
	buckets map[string]*embedding.Rows[string]
	spares  []*embedding.Rows[string] // emptied buckets new scopes reuse
}

// New builds a Cache.
func New(opts Options) *Cache {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.TTL <= 0 {
		opts.TTL = DefaultTTL
	}
	if opts.SemanticThreshold == 0 {
		opts.SemanticThreshold = DefaultSemanticThreshold
	}
	return &Cache{
		capacity:     opts.Capacity,
		ttl:          opts.TTL,
		threshold:    opts.SemanticThreshold,
		clock:        time.Now,
		enc:          embedding.Default(),
		entries:      make(map[string]*entry),
		windowMax:    windowMax(opts.Capacity),
		protectedMax: protectedMax(opts.Capacity),
		sketch:       newSketch(opts.Capacity, maphash.MakeSeed()),
		buckets:      make(map[string]*embedding.Rows[string]),
	}
}

// Len reports the live entry count (expired entries linger until a
// lookup or eviction touches them).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get looks key up: first the exact tier, then — when the exact tier
// misses and the semantic tier is enabled — the nearest cached query in
// the same scope above the similarity threshold. Expired entries are
// evicted on contact, never served. Every Get counts key in the policy's
// sketch, and a semantic hit counts the entry it served as well.
func (c *Cache) Get(key Key) (any, HitKind) {
	if c == nil {
		return nil, Miss
	}
	now := c.clock()
	nq := Normalize(key.Query)
	id := nq + keySep + key.Scope
	h := c.sketch.hash(id)

	c.mu.Lock()
	c.sketch.add(h)
	if e, ok := c.entries[id]; ok {
		if now.Before(e.expires) {
			c.touchLocked(e)
			v := e.value
			c.mu.Unlock()
			return v, Exact
		}
		c.removeLocked(e)
	}
	c.mu.Unlock()

	if c.threshold > 1 {
		return nil, Miss
	}
	// The probe runs outside c.mu; a hit it returns may have been evicted
	// since, so each is re-validated against the entry map.
	q, acc := embedding.Borrow(c.enc, nq)
	var near [3]embedding.Hit[string]
	c.vmu.RLock()
	hits := near[:0]
	if b := c.buckets[key.Scope]; b != nil {
		hits = b.TopK(q, len(near), hits)
	}
	c.vmu.RUnlock()
	acc.Release()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range hits {
		if h.Score < c.threshold {
			break // hits are ordered; nothing further clears the bar
		}
		e, ok := c.entries[h.ID]
		if !ok {
			continue // evicted between probe and re-check
		}
		if !now.Before(e.expires) {
			c.removeLocked(e)
			continue
		}
		c.sketch.add(e.hash)
		c.touchLocked(e)
		return e.value, Semantic
	}
	return nil, Miss
}

// Put stores (or refreshes) an answer that uses no documents; at capacity
// the policy decides which entry goes. No document write drops it.
func (c *Cache) Put(key Key, value any) {
	if c != nil {
		c.put(Normalize(key.Query), key.Scope, value, c.clock().Add(c.ttl), nil, nil, true)
	}
}

// Gen is the invalidation generation a query reads before it retrieves.
func (c *Cache) Gen() uint64 {
	if c == nil {
		return 0
	}
	return c.gen.Load()
}

// PutAt is Put for an answer grounded in documents by g, stored only if no
// Flush or drop pass — which could not see it — has run since gen was
// read. It reports whether the answer was stored.
func (c *Cache) PutAt(key Key, value any, gen uint64, g *Grounding) bool {
	return c != nil && c.put(Normalize(key.Query), key.Scope, value, c.clock().Add(c.ttl), g, &gen, true)
}

// put stores an entry — with the semantic tier on, its vector as a new row
// of its scope's bucket too — and reports it did, unless the generation
// moved past *at, or the key is held: that entry counts as used and, with
// refresh, takes value, deadline and grounding.
func (c *Cache) put(nq, scope string, value any, expires time.Time, g *Grounding, at *uint64, refresh bool) bool {
	id := nq + keySep + scope
	h := c.sketch.hash(id)
	var vec embedding.Vector
	if c.threshold <= 1 {
		var acc *embedding.Accumulator
		vec, acc = embedding.Borrow(c.enc, nq)
		defer acc.Release()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if at != nil && *at != c.gen.Load() {
		return false
	}
	if e, ok := c.entries[id]; ok {
		if refresh {
			e.value, e.expires, e.g = value, expires, g
		}
		c.touchLocked(e)
		return refresh
	}
	e := &entry{id: id, scope: scope, value: value, expires: expires, g: g, hash: h}
	c.entries[id] = e
	c.insertLocked(e)
	if c.threshold > 1 {
		return true
	}
	c.vmu.Lock()
	defer c.vmu.Unlock()
	b := c.buckets[scope]
	if b == nil {
		if n := len(c.spares); n > 0 {
			b, c.spares = c.spares[n-1], c.spares[:n-1]
		} else {
			b = embedding.NewRows[string](c.enc.Dim(), 0)
		}
		c.buckets[scope] = b
	}
	e.row = b.Len()
	b.Append(id, vec)
	return true
}

// Flush drops every entry and reports how many — the coherence hammer the
// server swings on settings changes, where any cached answer might now be
// produced differently.
func (c *Cache) Flush() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen.Add(1)
	n := len(c.entries)
	c.entries = make(map[string]*entry)
	c.window, c.probation, c.protected = segment{}, segment{}, segment{}
	c.vmu.Lock()
	for _, b := range c.buckets {
		c.keepLocked(b)
	}
	clear(c.buckets)
	c.vmu.Unlock()
	return n
}

// DropUpload drops, once doc's chunks (embedded as vecs) are stored, every
// entry one can enter — the filter admits doc, and it is as close as the
// k-th or closer: a tie may sort first — and reports how many.
func (c *Cache) DropUpload(doc string, vecs []embedding.Vector) int {
	return c.drop(func(g *Grounding) bool {
		return (g.Filter == "" || g.Filter == doc) && slices.ContainsFunc(vecs, func(v embedding.Vector) bool {
			return 1-embedding.Dot(g.Query, v) <= g.Kth
		})
	})
}

// DropDoc drops, once doc's chunks are deleted, every entry grounded in
// one of them, and reports how many.
func (c *Cache) DropDoc(doc string) int {
	return c.drop(func(g *Grounding) bool { return g == everyDoc || slices.Contains(g.Docs, doc) })
}

// drop is one pass: it advances the generation, so no answer retrieved
// before the write is stored after it, then judges groundings without the
// entry lock; one that took a new grounding meanwhile is fresh and stays.
func (c *Cache) drop(stale func(*Grounding) bool) (n int) {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	c.gen.Add(1)
	held := make(map[*entry]*Grounding)
	for _, e := range c.entries {
		if e.g != nil {
			held[e] = e.g
		}
	}
	c.mu.Unlock()
	for e, g := range held {
		if stale(g) {
			c.mu.Lock()
			if c.entries[e.id] == e && e.g == g {
				c.removeLocked(e)
				n++
			}
			c.mu.Unlock()
		}
	}
	return n
}

// keepLocked keeps a bucket that is going, emptied, up to maxSpares of
// them, so the scopes that come and go — a settings change empties every
// bucket, and a drop pass may empty one — do not regrow their buckets from
// nothing. Caller holds c.vmu.
func (c *Cache) keepLocked(b *embedding.Rows[string]) {
	if len(c.spares) < maxSpares {
		b.Reset()
		c.spares = append(c.spares, b)
	}
}

// maxSpares bounds the bucket arrays a Cache keeps for reuse.
const maxSpares = 4

// removeLocked evicts e from both tiers, the last row of its bucket
// moving into its row; an emptied bucket goes. Caller holds c.mu.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.id)
	e.seg.remove(e)
	if c.threshold > 1 {
		return
	}
	c.vmu.Lock()
	defer c.vmu.Unlock()
	b := c.buckets[e.scope]
	if moved, ok := b.SwapRemove(e.row); ok {
		c.entries[moved].row = e.row
	}
	if b.Len() == 0 {
		c.keepLocked(b)
		delete(c.buckets, e.scope)
	}
}
