package qcache

import (
	"container/list"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"llmms/internal/embedding"
)

// lruModel is a plain LRU of ids: the exact tier's policy before
// W-TinyLFU, kept as the baseline TestScanResistance measures against.
type lruModel struct {
	capacity int
	order    *list.List // front = most recently used
	at       map[string]*list.Element
}

func newLRUModel(capacity int) *lruModel {
	return &lruModel{capacity: capacity, order: list.New(), at: map[string]*list.Element{}}
}

// lookup reports whether id was held, storing it when it was not.
func (m *lruModel) lookup(id string) bool {
	if el, ok := m.at[id]; ok {
		m.order.MoveToFront(el)
		return true
	}
	if m.order.Len() >= m.capacity {
		delete(m.at, m.order.Remove(m.order.Back()).(string))
	}
	m.at[id] = m.order.PushFront(id)
	return false
}

// repeatMixStream is the benchmark's repeat_mix in the exact tier's eyes.
// Of its lookups, 70 % are zipfian (s = 1.1) over a 200-question hot set —
// the repeats and the near-duplicates that normalize onto them — 5 % are
// cold questions asked twice in a row, and 25 % a cyclic scan over the 617
// cold ones, whose reuse distance is beyond a 256-entry cache. The scan
// and the first of each pair miss under any policy: 27.5 %.
func repeatMixStream(rng *rand.Rand, n int) []string {
	const hot, cold = 200, 617
	zipf := rand.NewZipf(rng, 1.1, 1, hot-1)
	scan := rng.Intn(cold)
	out := make([]string, 0, n+1)
	for len(out) < n {
		// A pair is one draw and two lookups: 0.025 of 0.975 draws.
		switch r := rng.Float64() * 0.975; {
		case r < 0.70:
			out = append(out, fmt.Sprintf("hot question %d", zipf.Uint64()))
		case r < 0.725:
			q := fmt.Sprintf("cold question %d", scan%cold)
			out = append(out, q, q)
			scan++
		default:
			out = append(out, fmt.Sprintf("cold question %d", scan%cold))
			scan++
		}
	}
	return out[:n]
}

// underCapacityStream draws uniformly from a working set smaller than the
// cache.
func underCapacityStream(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("question %d", rng.Intn(200))
	}
	return out
}

// burstStream is recency without frequency: each question is asked in a
// burst of four lookups, which may each go instead to one of the overlap
// questions asked just before it, and is never asked again.
func burstStream(overlap int) func(*rand.Rand, int) []string {
	return func(rng *rand.Rand, n int) []string {
		out := make([]string, 0, n)
		for q := 0; len(out) < n; q++ {
			for k := 0; k < 4; k++ {
				out = append(out, fmt.Sprintf("burst question %d", q-rng.Intn(overlap+1)))
			}
		}
		return out[:n]
	}
}

// exactCounts gives c a sketch wide enough that the few ids a test asks
// for share no counter, and that does not halve within the test, so every
// frequency it compares is the test's own count, not at least that.
func exactCounts(c *Cache) { c.sketch = newSketch(1<<14, c.sketch.seed) }

// TestScanResistance replays seeded streams through the Cache (a miss is
// followed by a Put, as the server does) and through a plain LRU of the
// same capacity, and holds the Cache's miss share, counted after a
// warm-up and pooled over four seeds — the sketch's hash seed is drawn
// per cache, so a single stream's share varies by about 0.006 run to run
// — to each stream's bound.
func TestScanResistance(t *testing.T) {
	const warmup, measured, seeds = 2500, 10000, 4
	cases := []struct {
		name     string
		capacity int
		stream   func(*rand.Rand, int) []string
		check    func(t *testing.T, miss, lruMiss float64)
	}{
		{
			name: "repeat_mix shape", capacity: 256, stream: repeatMixStream,
			check: func(t *testing.T, miss, lruMiss float64) {
				if lruMiss < 0.35 {
					t.Errorf("LRU misses %.3f: the stream no longer has the scan's shape", lruMiss)
				}
				if miss > 0.30 {
					t.Errorf("miss share %.3f, want ≤ 0.30 (LRU %.3f)", miss, lruMiss)
				}
			},
		},
		{
			name: "working set under capacity", capacity: 256, stream: underCapacityStream,
			check: func(t *testing.T, miss, _ float64) {
				if miss != 0 {
					t.Errorf("miss share %.4f after every question was asked once, want 0", miss)
				}
			},
		},
		{
			name: "recency-only bursts", capacity: 256, stream: burstStream(0),
			check: func(t *testing.T, miss, lruMiss float64) {
				if math.Abs(miss-lruMiss) > 0.02 {
					t.Errorf("miss share %.3f, LRU %.3f: more than 0.02 apart", miss, lruMiss)
				}
			},
		},
		{
			// The policy's known cost: three questions live at once, one more
			// than the window holds, so the one the window drops is asked for
			// again after the main region refused it.
			name: "bursts wider than the window", capacity: 256, stream: burstStream(1),
			check: func(t *testing.T, miss, lruMiss float64) {
				if miss > lruMiss+0.05 {
					t.Errorf("miss share %.3f, LRU %.3f: the cost grew past 0.05", miss, lruMiss)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var misses, lruMisses int
			for seed := int64(1); seed <= seeds; seed++ {
				ids := tc.stream(rand.New(rand.NewSource(seed)), warmup+measured)
				c := New(Options{Capacity: tc.capacity, TTL: time.Hour, SemanticThreshold: 2})
				lru := newLRUModel(tc.capacity)
				for i, q := range ids {
					key := Key{Query: q, Scope: "s"}
					_, kind := c.Get(key)
					if kind == Miss {
						c.Put(key, i)
					}
					held := lru.lookup(key.ID())
					if i >= warmup {
						misses += btoi(kind == Miss)
						lruMisses += btoi(!held)
					}
				}
				if c.Len() > tc.capacity {
					t.Fatalf("seed %d: %d entries over capacity %d", seed, c.Len(), tc.capacity)
				}
			}
			miss, lruMiss := float64(misses)/(seeds*measured), float64(lruMisses)/(seeds*measured)
			t.Logf("miss share %.4f, LRU %.4f", miss, lruMiss)
			tc.check(t, miss, lruMiss)
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSketchCountsAndHalves: between halvings no key's estimate is below
// its lookups (saturating at 15), and a halving halves every counter.
func TestSketchCountsAndHalves(t *testing.T) {
	const capacity = 64
	s := newSketch(capacity, maphash.MakeSeed())
	rng := rand.New(rand.NewSource(1))
	counts := map[uint64]uint64{}
	for period := 0; period < 3; period++ {
		clear(counts)
		for i := 0; i < s.period-1; i++ {
			h := s.hash(fmt.Sprintf("key %d", int(rng.ExpFloat64()*40)))
			s.add(h)
			counts[h]++
			if got, want := s.estimate(h), min(counts[h], 15); got < want {
				t.Fatalf("period %d lookup %d: estimate %d under the %d lookups counted", period, i, got, want)
			}
		}
		before := append([]uint64(nil), s.table...)
		s.add(s.hash("the lookup that ends the period"))
		if s.lookups != 0 {
			t.Fatalf("period %d: %d lookups after the halving, want 0", period, s.lookups)
		}
		for i := range s.table {
			for off := uint(0); off < 64; off += 4 {
				// The last lookup added at most one before the halving.
				was, now := before[i]>>off&15, s.table[i]>>off&15
				if now != was/2 && now != min(was+1, 15)/2 {
					t.Fatalf("period %d word %d counter %d: %d halved to %d", period, i, off/4, was, now)
				}
			}
		}
	}
}

// policyShape holds the cache's invariants: Len within Capacity, every
// entry on exactly one segment list and every listed entry held, the
// window and protected within their shares, and each scope's bucket rows
// the entries of that scope (vectorRows).
func policyShape(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	seen := map[*entry]bool{}
	for _, seg := range []*segment{&c.window, &c.probation, &c.protected} {
		n := 0
		var prev *entry
		for e := seg.head; e != nil; prev, e = e, e.next {
			if e.seg != seg || e.prev != prev {
				c.mu.Unlock()
				t.Fatalf("entry %q is misthreaded on its segment", e.id)
			}
			if seen[e] || c.entries[e.id] != e {
				c.mu.Unlock()
				t.Fatalf("entry %q listed twice, or not held", e.id)
			}
			seen[e] = true
			n++
		}
		if n != seg.n || seg.tail != prev {
			c.mu.Unlock()
			t.Fatalf("segment counts %d entries, walks %d", seg.n, n)
		}
	}
	listed, held := len(seen), len(c.entries)
	w, p := c.window.n, c.protected.n
	c.mu.Unlock()
	switch {
	case listed != held:
		t.Fatalf("%d entries held, %d on segment lists", held, listed)
	case held > c.capacity:
		t.Fatalf("%d entries over capacity %d", held, c.capacity)
	case w > c.windowMax || p > c.protectedMax:
		t.Fatalf("window %d (share %d), protected %d (share %d)", w, c.windowMax, p, c.protectedMax)
	}
	if rows := vectorRows(t, c); c.threshold <= 1 && rows != held {
		t.Fatalf("%d bucket rows for %d entries", rows, held)
	}
}

// FuzzCachePolicy runs a random sequence of Get, Put, PutAt, DropUpload,
// DropDoc, Flush and clock steps over a small cache, keeping a model of
// what may be served — each key's last stored value, its deadline and its
// grounding, forgotten at a drop or a Flush — and after every step holds
// the cache to policyShape, and every hit to a value the model still
// holds: an expired, dropped, flushed or overwritten answer is never
// served.
func FuzzCachePolicy(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("\x00\x10\x20\x30\x01\x11\x21\x31\x40\x50\x60\x70\x80\x90\xa0\xb0\xc0\xd0\xe0\xf0"))
	f.Add([]byte("a scan of one-off questions past a hot set asked again and again"))
	// Eight answers stored, then asked for four times over: promotions
	// fill protected and push it over its share.
	var hot []byte
	for arg := byte(0); arg < 8; arg++ {
		hot = append(hot, 3, arg*4)
	}
	for round := 0; round < 4; round++ {
		for arg := byte(0); arg < 8; arg++ {
			hot = append(hot, 0, arg*4)
		}
	}
	f.Add(hot)
	f.Fuzz(func(t *testing.T, ops []byte) {
		now := time.Unix(1000, 0)
		c := newAt(Options{Capacity: 5, TTL: 10 * time.Second, SemanticThreshold: 0.5}, func() time.Time { return now })
		type stored struct {
			id      string
			expires time.Time
			g       *Grounding
		}
		live := map[int]stored{} // value → what stored it, while it may be served
		current := map[string]int{}
		forget := func(drop func(stored) bool) {
			for v, s := range live {
				if drop(s) {
					delete(live, v)
					delete(current, s.id)
				}
			}
		}
		chunk := []embedding.Vector{embedding.Default().Encode("a new chunk")}
		key := func(b byte) Key {
			fam := families[int(b>>2)%len(families)]
			return Key{Query: fam[int(b)%len(fam)], Scope: []string{"s", "t"}[b>>7]}
		}
		staleGen := c.Gen()
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			k := key(arg)
			store := func(g *Grounding) {
				id := Normalize(k.Query) + keySep + k.Scope
				if old, ok := current[id]; ok {
					delete(live, old)
				}
				current[id] = i
				live[i] = stored{id: id, expires: now.Add(10 * time.Second), g: g}
			}
			switch op % 8 {
			case 0, 1, 2:
				v, kind := c.Get(k)
				if kind == Miss {
					break
				}
				s, ok := live[v.(int)]
				switch {
				case !ok:
					t.Fatalf("op %d: Get(%+v) served %v, which was expired, dropped, flushed or overwritten", i, k, v)
				case !now.Before(s.expires):
					t.Fatalf("op %d: Get(%+v) served %v past its deadline", i, k, v)
				case kind == Exact && s.id != k.ID():
					t.Fatalf("op %d: exact Get(%+v) served %v, stored under %q", i, k, v, s.id)
				case !strings.HasSuffix(s.id, keySep+k.Scope):
					t.Fatalf("op %d: Get(%+v) served %v from another scope, %q", i, k, v, s.id)
				}
			case 3:
				c.Put(k, i)
				store(nil)
			case 4:
				g := &Grounding{Docs: []string{string('a' + arg%3)}, Kth: -1}
				if arg%2 == 0 {
					g.Kth = math.Inf(1)
				}
				if arg%5 == 0 {
					g.Filter = g.Docs[0]
				}
				gen := c.Gen()
				if arg%4 == 0 {
					gen = staleGen
				}
				if c.PutAt(k, i, gen, g) {
					store(g)
				} else if gen == c.Gen() {
					t.Fatalf("op %d: PutAt refused at the current generation", i)
				}
			case 5:
				doc := string('a' + arg%3)
				if arg%2 == 0 {
					c.DropDoc(doc)
					forget(func(s stored) bool { return s.g != nil && s.g.Docs[0] == doc })
				} else {
					c.DropUpload(doc, chunk)
					forget(func(s stored) bool {
						return s.g != nil && (s.g.Filter == "" || s.g.Filter == doc) && math.IsInf(s.g.Kth, 1)
					})
				}
				staleGen = c.Gen() - uint64(arg%2)
			case 6:
				now = now.Add(time.Duration(arg%8) * time.Second)
			case 7:
				if arg%8 == 0 {
					c.Flush()
					forget(func(stored) bool { return true })
				}
			}
			policyShape(t, c)
		}
	})
}
