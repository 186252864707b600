package qcache

import "hash/maphash"

// The exact tier's eviction policy is W-TinyLFU (Einziger, Friedman &
// Manes, "TinyLFU: A Highly Efficient Cache Admission Policy", ACM TOS
// 2017): a small window LRU in front of a segmented LRU main region, and a
// frequency sketch that decides which of the window's oldest entry and the
// main region's victim is worth keeping. A question asked once — a scan
// — passes through the window and is rejected at its door, so it never
// pushes an answer that is asked for again and again out of the cache.
// The shares and the sketch's shape are the published defaults.
const (
	// windowPercent of Capacity is the window LRU, at least one entry.
	windowPercent = 1
	// protectedPercent of the main region is its protected segment; the
	// rest is probation.
	protectedPercent = 80
	// sketchDepth is the count-min sketch's row count.
	sketchDepth = 4
	// sketchWidthPerEntry counters a row for each entry of Capacity.
	sketchWidthPerEntry = 4
	// sketchPeriodPerEntry × Capacity lookups between halvings: the sample
	// the sketch's frequencies are taken over.
	sketchPeriodPerEntry = 10
)

// segment is an LRU list of entries, threaded through the entries
// themselves: front is the most recently used.
type segment struct {
	head, tail *entry
	n          int
}

func (s *segment) pushFront(e *entry) {
	e.seg, e.prev, e.next = s, nil, s.head
	if s.head != nil {
		s.head.prev = e
	} else {
		s.tail = e
	}
	s.head = e
	s.n++
}

func (s *segment) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.seg, e.prev, e.next = nil, nil, nil
	s.n--
}

// sketch is a count-min sketch of 4-bit counters: sketchDepth rows, each
// packed sixteen counters to a word, each indexed by its own remix of one
// seeded 64-bit hash, so two ids that collide in one row are no likelier
// to collide in the next. A counter saturates at 15, and every period
// lookups every counter is halved, so old popularity fades. The seed is
// drawn per sketch, so no client can aim its queries' collisions at
// another's counters.
type sketch struct {
	seed    maphash.Seed
	table   []uint64 // sketchDepth rows of words
	words   int      // words a row
	shift   uint     // 64 − log2(counters a row)
	period  int
	lookups int
}

func newSketch(capacity int, seed maphash.Seed) *sketch {
	width, shift := 16, uint(64-4)
	for width < sketchWidthPerEntry*capacity {
		width, shift = width<<1, shift-1
	}
	return &sketch{
		seed:   seed,
		table:  make([]uint64, sketchDepth*width/16),
		words:  width / 16,
		shift:  shift,
		period: sketchPeriodPerEntry * capacity,
	}
}

// hash is the sketch's hash of an exact-tier id.
func (s *sketch) hash(id string) uint64 { return maphash.String(s.seed, id) }

// slot returns row i's word and the bit offset of h's counter in it: the
// top bits of a multiplicative remix of h offset by the row.
func (s *sketch) slot(h uint64, i int) (*uint64, uint) {
	x := h + uint64(i)*0x9e3779b97f4a7c15
	x = (x ^ x>>32) * 0xd6e8feb86659fd93
	c := x >> s.shift
	return &s.table[i*s.words+int(c>>4)], uint(c&15) * 4
}

// add counts one lookup of h, halving every counter at the end of a
// period.
func (s *sketch) add(h uint64) {
	for i := 0; i < sketchDepth; i++ {
		w, off := s.slot(h, i)
		if *w>>off&15 < 15 {
			*w += 1 << off
		}
	}
	if s.lookups++; s.lookups >= s.period {
		s.halve()
	}
}

func (s *sketch) halve() {
	for i, w := range s.table {
		s.table[i] = w >> 1 & 0x7777777777777777
	}
	s.lookups = 0
}

// estimate is h's count: its smallest counter, never below the lookups of
// h since the last halving (saturating at 15).
func (s *sketch) estimate(h uint64) uint64 {
	m := uint64(15)
	for i := 0; i < sketchDepth; i++ {
		w, off := s.slot(h, i)
		m = min(m, *w>>off&15)
	}
	return m
}

// windowMax and protectedMax size the segments of a cache of capacity
// entries; the main region is what the window leaves.
func windowMax(capacity int) int { return max(1, capacity*windowPercent/100) }

func protectedMax(capacity int) int {
	return (capacity - windowMax(capacity)) * protectedPercent / 100
}

// touchLocked records a hit on e: it moves to the front of its segment,
// or from probation to protected, whose least recently used entry goes
// back to probation when protected is over its share. Caller holds c.mu.
func (c *Cache) touchLocked(e *entry) {
	c.tick++
	e.used = c.tick
	seg := e.seg
	seg.remove(e)
	if seg != &c.probation {
		seg.pushFront(e)
		return
	}
	c.protected.pushFront(e)
	if c.protected.n > c.protectedMax {
		d := c.protected.tail
		c.protected.remove(d)
		c.probation.pushFront(d)
	}
}

// insertLocked enters a new entry at the window's front. A window over its
// share hands its oldest entry to the main region: straight into probation
// while the region has room, and otherwise only when the sketch rates it
// strictly more often requested than probation's least recently used
// entry, which it then replaces; else the candidate goes. Caller holds
// c.mu.
func (c *Cache) insertLocked(e *entry) {
	c.tick++
	e.used = c.tick
	c.window.pushFront(e)
	if c.window.n <= c.windowMax {
		return
	}
	cand := c.window.tail
	if c.probation.n+c.protected.n >= c.capacity-c.windowMax {
		victim := c.probation.tail
		if victim == nil || c.sketch.estimate(cand.hash) <= c.sketch.estimate(victim.hash) {
			c.rejected.Add(1)
			c.removeLocked(cand)
			return
		}
		c.admitted.Add(1)
		c.removeLocked(victim)
	}
	c.window.remove(cand)
	c.probation.pushFront(cand)
}

// Admissions reports how many of the window's candidates that met a full
// main region were admitted, and how many were evicted at its door.
func (c *Cache) Admissions() (admitted, rejected uint64) {
	if c == nil {
		return 0, 0
	}
	return c.admitted.Load(), c.rejected.Load()
}
