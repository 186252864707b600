package vectordb

import (
	"runtime"
	"sort"
	"sync"

	"llmms/internal/embedding"
)

// DefaultShards is the shard count for collections that don't set
// CollectionConfig.Shards: one shard per schedulable CPU, so writers on
// different shards never convoy on one lock.
func DefaultShards() int { return runtime.GOMAXPROCS(0) }

// shard is one hash partition of a collection: its own documents, its
// own rows of vectors, its own lock.
type shard struct {
	mu   sync.RWMutex
	docs map[string]*record
	// rows holds one unit (or zero) vector per document whose embedding is
	// the collection's dim wide, under the document's id.
	rows *embedding.Rows[string]
}

// record is a stored document. One with a row (row ≥ 0) keeps its vector
// there alone, so its Embedding is nil; one without (row < 0) keeps an
// embedding of another length as data.
type record struct {
	Document
	row int
}

func newShard(dim int) *shard {
	return &shard{docs: make(map[string]*record), rows: embedding.NewRows[string](dim, 0)}
}

// insertLocked applies one prepared document to the shard, replacing any
// existing document with the same id. The shard's write lock is held.
func (sh *shard) insertLocked(p prepared) {
	sh.removeLocked(p.doc.ID)
	rec := &record{Document: p.doc, row: -1}
	if p.indexed {
		rec.row = sh.rows.Len()
		sh.rows.Append(rec.ID, rec.Embedding)
		rec.Embedding = nil
	}
	sh.docs[rec.ID] = rec
}

// removeLocked deletes id from the shard and reports whether it was
// there. The shard's write lock is held.
func (sh *shard) removeLocked(id string) bool {
	rec, ok := sh.docs[id]
	if !ok {
		return false
	}
	delete(sh.docs, id)
	if rec.row >= 0 {
		if moved, ok := sh.rows.SwapRemove(rec.row); ok {
			sh.docs[moved].row = rec.row
		}
		sh.rows.Trim()
	}
	return true
}

// document returns rec with a copy of its vector. The shard's lock is held.
func (sh *shard) document(rec *record) Document {
	d := rec.Document
	if rec.row >= 0 {
		d.Embedding = embedding.Clone(sh.rows.Row(rec.row))
	} else {
		d.Embedding = embedding.Clone(rec.Embedding)
	}
	return d
}

// search selects, into dst's array, the k rows nearest the unit query q
// whose documents match, best first. A row scores ⟨q, v⟩ − 1, which is
// −(1 − ⟨q, v⟩) exactly, so the hits come ordered by (distance, id) and a
// hit's distance is its score negated. The shard's lock is held.
func (sh *shard) search(q embedding.Vector, match filter, k int, dst []embedding.Hit[string]) []embedding.Hit[string] {
	var keep func(i int) bool
	if len(match) > 0 {
		keep = func(i int) bool { return match.matches(sh.docs[sh.rows.ID(i)].Metadata) }
	}
	return sh.rows.TopKWhere(q, k, -1, keep, dst)
}

// shardIndex maps a document id to its shard with FNV-1a. The hash is
// inlined (not hash/fnv) to keep the hot insert/delete/get paths free of
// allocation and interface calls.
func (c *Collection) shardIndex(id string) int {
	if len(c.shards) == 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(c.shards)))
}

// shardSet returns the sorted, deduplicated shard indices a prepared
// batch touches.
func shardSet(pp []prepared) []int {
	seen := make(map[int]struct{}, len(pp))
	for i := range pp {
		seen[pp[i].shard] = struct{}{}
	}
	return sortedKeys(seen)
}

// shardSetIDs is shardSet for a plain id list.
func shardSetIDs(c *Collection, ids []string) []int {
	seen := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		seen[c.shardIndex(id)] = struct{}{}
	}
	return sortedKeys(seen)
}

// allShards returns [0, n).
func allShards(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func sortedKeys(m map[int]struct{}) []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// lockShards write-locks the given shards. idxs must be sorted
// ascending: taking every multi-shard lock in one global order is what
// makes concurrent multi-shard writes deadlock-free.
func (c *Collection) lockShards(idxs []int) {
	for _, i := range idxs {
		c.shards[i].mu.Lock()
	}
}

// unlockShards releases locks taken by lockShards.
func (c *Collection) unlockShards(idxs []int) {
	for _, i := range idxs {
		c.shards[i].mu.Unlock()
	}
}
