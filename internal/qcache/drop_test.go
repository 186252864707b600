package qcache

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llmms/internal/embedding"
)

// TestDropPassesDropExactlyTheStale walks each rule of the two drop passes:
// an upload drops an answer when its filter admits the new document and a
// new chunk is at least as close as its k-th, ties included; a delete
// drops the answers grounded in the document; an answer that uses no
// documents stays; a restored answer depends on every document; and an
// answer retrieved before a pass is not stored after it.
func TestDropPassesDropExactlyTheStale(t *testing.T) {
	enc := embedding.Default()
	q := enc.Encode("what is the capital of france")
	near := enc.Encode("paris is the capital of france")
	far := enc.Encode("goldfish remember things for months")
	dist := func(v embedding.Vector) float64 { return 1 - embedding.Dot(q, v) }
	if dist(near) >= dist(far) {
		t.Fatalf("the fixture needs near (%.3f) closer than far (%.3f)", dist(near), dist(far))
	}

	c := New(Options{SemanticThreshold: 2})
	put := func(name string, g *Grounding) {
		t.Helper()
		if !c.PutAt(Key{Query: name, Scope: "s"}, name, c.Gen(), g) {
			t.Fatalf("%s: PutAt refused with the current generation", name)
		}
	}
	kept := func(name string, want bool) {
		t.Helper()
		if _, kind := c.Get(Key{Query: name, Scope: "s"}); (kind == Exact) != want {
			t.Fatalf("%s: cached = %v, want %v", name, kind == Exact, want)
		}
	}
	c.Put(Key{Query: "plain", Scope: "s"}, "plain")
	put("tie", &Grounding{Docs: []string{"a"}, Kth: dist(near), Query: q})
	put("closer", &Grounding{Docs: []string{"a"}, Kth: dist(near), Query: q})
	put("filtered", &Grounding{Docs: []string{"a"}, Kth: math.Inf(1), Filter: "a"})
	put("few", &Grounding{Kth: math.Inf(1)})

	// A far chunk enters only the retrievals that came back short, and the
	// filter keeps it out of a retrieval restricted to another document.
	if n := c.DropUpload("b", []embedding.Vector{far}); n != 1 {
		t.Fatalf("upload of a far chunk dropped %d, want 1", n)
	}
	kept("few", false)
	kept("tie", true)
	kept("filtered", true)
	// A chunk exactly as close as the k-th enters: its id may sort first.
	if n := c.DropUpload("c", []embedding.Vector{far, near}); n != 2 {
		t.Fatalf("upload of a tying chunk dropped %d, want 2", n)
	}
	kept("tie", false)
	kept("closer", false)
	kept("filtered", true)
	kept("plain", true)

	// A delete drops what its document grounded, nothing else.
	put("other", &Grounding{Docs: []string{"b"}, Kth: 0, Query: q})
	if n := c.DropDoc("a"); n != 1 {
		t.Fatalf("delete dropped %d, want 1", n)
	}
	kept("filtered", false)
	kept("other", true)
	kept("plain", true)

	// The fence: an answer retrieved before a pass is not stored after it.
	gen := c.Gen()
	c.DropDoc("zzz")
	if c.PutAt(Key{Query: "late", Scope: "s"}, "late", gen, &Grounding{Kth: math.Inf(1)}) {
		t.Fatal("PutAt stored an answer retrieved before a pass")
	}
	kept("late", false)
	gen = c.Gen()
	c.Flush()
	if c.PutAt(Key{Query: "late", Scope: "s"}, "late", gen, &Grounding{Kth: math.Inf(1)}) {
		t.Fatal("PutAt stored an answer retrieved before a Flush")
	}

	// A restored answer's grounding was not persisted: any write drops it.
	c.Put(Key{Query: "plain", Scope: "s"}, "plain")
	put("other", &Grounding{Docs: []string{"b"}, Kth: 0, Query: q})
	enc2, dec := jsonCodec()
	for _, write := range []func(*Cache) int{
		func(c *Cache) int { return c.DropDoc("unrelated") },
		func(c *Cache) int { return c.DropUpload("unrelated", []embedding.Vector{far}) },
	} {
		warm := New(Options{SemanticThreshold: 2})
		if n := warm.WarmStart(c.Snapshot("fp", enc2), "fp", dec); n != 2 {
			t.Fatalf("restored %d entries, want 2", n)
		}
		if n := write(warm); n != 1 {
			t.Fatalf("a write dropped %d restored entries, want the grounded one", n)
		}
		if _, kind := warm.Get(Key{Query: "plain", Scope: "s"}); kind != Exact {
			t.Fatal("a write dropped a restored answer that uses no documents")
		}
	}
}

// TestDropPassRacesPutAndProbe runs drop passes against writers that read
// the generation, then the corpus, then PutAt — a query's order — and
// against exact and semantic probes. Every pass follows a corpus write and
// drops every entry, so a probe that begins after pass w has returned must
// never be served an answer retrieved before write w. Under -race it also
// holds the unlocked half of a pass apart from every write to an entry.
func TestDropPassRacesPutAndProbe(t *testing.T) {
	c := New(Options{Capacity: 8, SemanticThreshold: 0.5})
	chunk := []embedding.Vector{embedding.Default().Encode("a new chunk")}
	var corpus, floor atomic.Int64
	var served, semantic atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(body func(i int) bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if !body(i) {
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		loop(func(i int) bool {
			gen := c.Gen()
			v := corpus.Load()
			fam := families[(i+w)%len(families)]
			c.PutAt(Key{Query: fam[i%3], Scope: "s"}, v, gen, &Grounding{Docs: []string{"d"}, Kth: math.Inf(1)})
			return true
		})
	}
	for p := 0; p < 2; p++ {
		loop(func(i int) bool {
			min := floor.Load()
			fam := families[(i+p)%len(families)]
			v, kind := c.Get(Key{Query: fam[i%5], Scope: "s"})
			if kind == Miss {
				return true
			}
			served.Add(1)
			if kind == Semantic {
				semantic.Add(1)
			}
			if v.(int64) < min {
				t.Errorf("a probe begun after pass %d returned was served an answer retrieved before write %d", min, v)
				return false
			}
			return true
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for w := int64(1); w <= 2000 || served.Load() < 500 || semantic.Load() < 50; w++ {
		corpus.Store(w)
		if w%2 == 0 {
			c.DropUpload("x", chunk)
		} else {
			c.DropDoc("d")
		}
		floor.Store(w)
		if time.Now().After(deadline) {
			break
		}
	}
	close(stop)
	wg.Wait()
	if served.Load() == 0 || semantic.Load() == 0 {
		t.Fatalf("%d probes served, %d semantic: nothing raced", served.Load(), semantic.Load())
	}
}
