// Package vectordb is the embedded vector database behind LLM-MS's RAG
// layer, standing in for the ChromaDB the paper deploys (§6.2).
//
// A database holds named collections of documents. Each document has a
// caller-supplied id, raw text, an embedding, and optional metadata. A
// collection answers one kind of query: the exact top-k documents by
// cosine similarity to a question, optionally kept to those whose metadata
// fields equal given values. Every vector a collection indexes is unit
// length and as wide as its encoder's Dim — the encoder's output is, and an
// explicit vector is normalized on insert — so cosine similarity is one dot
// product, and a shard keeps its vectors in one embedding.Rows, scanned with
// that package's kernel. A vector of any other length is stored as data and
// is never a candidate.
//
// Every collection is split by document-id hash into independently locked
// shards (see shard.go), so concurrent upserts and queries contend on
// 1/N of the key space instead of one collection-wide lock. Queries fan
// out across shards and merge by distance after every read lock is
// released.
//
// New builds an in-memory database. Open builds a durable one, where every
// write is CRC-framed into a per-collection write-ahead log before it is
// acknowledged, with snapshot+truncate compaction and crash recovery
// (wal.go, durable.go).
package vectordb

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"llmms/internal/embedding"
)

// Metadata is the schemaless per-document annotation map. Values should
// be strings, bools, or numbers (JSON-representable scalars).
type Metadata map[string]any

// Document is a stored record.
type Document struct {
	ID        string           `json:"id"`
	Text      string           `json:"text"`
	Embedding embedding.Vector `json:"embedding"`
	Metadata  Metadata         `json:"metadata,omitempty"`
}

// Result is one query hit.
type Result struct {
	ID       string
	Text     string
	Metadata Metadata
	// Distance is the cosine distance 1 − ⟨q, v⟩ (smaller is closer).
	Distance float64
	// Similarity is 1 − Distance, the cosine similarity.
	Similarity float64
}

// QueryRequest describes a search against a collection. Exactly one of
// Text or Embedding must be set.
type QueryRequest struct {
	// Text is embedded with the collection encoder.
	Text string
	// Embedding queries with a precomputed vector as wide as the
	// collection encoder's Dim; any other length is an error.
	Embedding embedding.Vector
	// TopK is the number of results; defaults to 10.
	TopK int
	// Where keeps the documents whose metadata holds every listed field
	// with an equal value: a string, a bool or a number, numbers compared
	// as float64. nil matches all.
	Where Metadata
}

// CollectionConfig controls collection creation.
type CollectionConfig struct {
	// Encoder embeds Text on Add/Query when no explicit embedding is
	// given, and its Dim is the width of the vectors the collection
	// indexes; defaults to embedding.Default().
	Encoder embedding.Encoder
	// Shards is how many independently locked partitions the collection
	// is split into by document-id hash. Non-positive means DefaultShards.
	Shards int
}

// Hooks lets an observer (the telemetry layer) watch substrate activity
// without vectordb importing it. Every field is optional; the zero value
// observes nothing. telemetry.RegisterVectorDBMetrics returns a struct
// whose methods match these fields one-for-one.
type Hooks struct {
	// ObserveQuery times one Query call end to end.
	ObserveQuery func(collection string, d time.Duration)
	// ObserveInsert times one Add/Upsert call, durability wait included.
	ObserveInsert func(collection string, d time.Duration)
	// AddWALBytes counts bytes appended to a collection's WAL.
	AddWALBytes func(collection string, n int)
	// IncCompaction counts completed snapshot+truncate compactions.
	IncCompaction func(collection string)
	// SetShardDocs reports a shard's live document count after a write.
	SetShardDocs func(collection, shard string, docs int)
	// ObserveRecovery reports how long Open spent rebuilding state from
	// snapshots and WAL tails.
	ObserveRecovery func(d time.Duration)
}

// Collection is a named set of documents sharded by document-id hash,
// each shard with its own rows of vectors and RWMutex. All methods are
// safe for concurrent use.
type Collection struct {
	name       string
	cfg        CollectionConfig
	dim        int // cfg.Encoder.Dim(): the width of an indexed vector
	shards     []*shard
	shardNames []string // per-shard metric label values, precomputed
	hooks      Hooks

	// Durability; all nil/zero for in-memory collections.
	wal          *wal
	snapFile     string // snapshot path, absolute
	compactBytes int64  // the const; in-package tests lower it
	compacting   atomic.Bool
}

// newCollection builds an empty collection, normalizing config defaults.
func newCollection(name string, cfg CollectionConfig) *Collection {
	if cfg.Encoder == nil {
		cfg.Encoder = embedding.Default()
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards()
	}
	c := &Collection{
		name:       name,
		cfg:        cfg,
		dim:        cfg.Encoder.Dim(),
		shards:     make([]*shard, cfg.Shards),
		shardNames: make([]string, cfg.Shards),
	}
	for i := range c.shards {
		c.shards[i] = newShard(c.dim)
		c.shardNames[i] = fmt.Sprintf("%d", i)
	}
	return c
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Count returns the number of stored documents.
func (c *Collection) Count() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.RLock()
		n += len(sh.docs)
		sh.mu.RUnlock()
	}
	return n
}

// Upsert inserts documents, replacing any existing documents with the
// same ids. Documents without an embedding are embedded from their text
// with the collection encoder.
func (c *Collection) Upsert(docs ...Document) error {
	return c.write(docs, true)
}

// write is the shared insert path. Embeddings are resolved outside any
// lock; the involved shards are then locked in ascending index order
// (the global order that keeps multi-shard writes deadlock-free), the
// documents applied, and — for durable collections — the WAL record
// enqueued before the locks drop, so log order always matches apply
// order for any given document. The caller then waits for the group
// commit to make the write durable before it is acknowledged.
func (c *Collection) write(docs []Document, logWAL bool) error {
	if len(docs) == 0 {
		return nil
	}
	var start time.Time
	if c.hooks.ObserveInsert != nil {
		start = time.Now()
	}
	pp, err := c.prepare(docs)
	if err != nil {
		return err
	}
	idxs := shardSet(pp)
	c.lockShards(idxs)
	for i := range pp {
		c.shards[pp[i].shard].insertLocked(pp[i])
	}
	var ack *walAck
	if logWAL && c.wal != nil {
		ack = c.wal.append(walRecord{Op: walOpUpsert, Docs: docs})
	}
	c.unlockShards(idxs)
	c.observeShardDocs(idxs)
	if ack != nil {
		err = ack.wait()
	}
	if c.hooks.ObserveInsert != nil {
		c.hooks.ObserveInsert(c.name, time.Since(start))
	}
	if err != nil {
		return fmt.Errorf("vectordb: wal append in %q: %w", c.name, err)
	}
	c.maybeCompact()
	return nil
}

// prepared is a document ready for insertion: embedding resolved,
// target shard chosen.
type prepared struct {
	doc     Document
	shard   int
	indexed bool // the embedding is dim wide and unit or zero: it takes a row
}

// prepare resolves embeddings and shard targets for a batch, outside any
// lock — text encoding is the expensive part of an insert and must not
// serialize readers.
func (c *Collection) prepare(docs []Document) ([]prepared, error) {
	pp := make([]prepared, len(docs))
	for i, d := range docs {
		if d.ID == "" {
			return nil, fmt.Errorf("vectordb: document with empty id")
		}
		switch {
		case len(d.Embedding) == 0:
			// Encoder output is unit (or zero) by contract — no check needed.
			d.Embedding = c.cfg.Encoder.Encode(d.Text)
		case len(d.Embedding) != c.dim:
			// Not a vector this collection searches: kept as data.
			d.Embedding = embedding.Clone(d.Embedding)
		default:
			// The row copies a unit vector bit for bit. Cosine ranking is
			// scale-invariant, so any other is stored as its unit copy.
			if n := embedding.Norm(d.Embedding); n != 0 && math.Abs(n-1) > 1e-4 {
				d.Embedding = embedding.Clone(d.Embedding)
				embedding.NormalizeInPlace(d.Embedding)
			}
		}
		pp[i] = prepared{doc: d, shard: c.shardIndex(d.ID), indexed: len(d.Embedding) == c.dim}
	}
	return pp, nil
}

// Delete removes the given ids; missing ids are ignored. It returns the
// number of documents actually removed.
func (c *Collection) Delete(ids ...string) int {
	if len(ids) == 0 {
		return 0
	}
	idxs := shardSetIDs(c, ids)
	c.lockShards(idxs)
	var removed []string
	for _, id := range ids {
		if c.shards[c.shardIndex(id)].removeLocked(id) {
			removed = append(removed, id)
		}
	}
	var ack *walAck
	if c.wal != nil && len(removed) > 0 {
		ack = c.wal.append(walRecord{Op: walOpDelete, IDs: removed})
	}
	c.unlockShards(idxs)
	c.observeShardDocs(idxs)
	if ack != nil {
		// Delete's signature predates durability; a sync failure cannot
		// be reported here, but waiting still orders the acknowledgement
		// after the group commit.
		_ = ack.wait()
		c.maybeCompact()
	}
	return len(removed)
}

// DeleteWhere removes every document whose metadata matches where, as
// QueryRequest.Where reads it (the ChromaDB delete-with-where operation).
// It returns how many documents were removed; an invalid filter, or a
// log that did not take the delete, is an error. Unlike Query,
// it locks every shard at once so the scan is a consistent point-in-time
// cut of the collection.
func (c *Collection) DeleteWhere(where Metadata) (int, error) {
	match, err := compileFilter(where)
	if err != nil {
		return 0, fmt.Errorf("vectordb: bad Where filter: %w", err)
	}
	idxs := allShards(len(c.shards))
	c.lockShards(idxs)
	var doomed []string
	for _, sh := range c.shards {
		for id, rec := range sh.docs {
			if match.matches(rec.Metadata) {
				doomed = append(doomed, id)
			}
		}
	}
	for _, id := range doomed {
		c.shards[c.shardIndex(id)].removeLocked(id)
	}
	var ack *walAck
	if c.wal != nil && len(doomed) > 0 {
		ack = c.wal.append(walRecord{Op: walOpDelete, IDs: doomed})
	}
	c.unlockShards(idxs)
	c.observeShardDocs(idxs)
	if ack != nil {
		if err := ack.wait(); err != nil {
			return len(doomed), fmt.Errorf("vectordb: wal append in %q: %w", c.name, err)
		}
		c.maybeCompact()
	}
	return len(doomed), nil
}

// Get returns the documents with the given ids, omitting missing ones.
func (c *Collection) Get(ids ...string) []Document {
	out := make([]Document, 0, len(ids))
	for _, id := range ids {
		sh := c.shards[c.shardIndex(id)]
		sh.mu.RLock()
		if rec, ok := sh.docs[id]; ok {
			out = append(out, sh.document(rec))
		}
		sh.mu.RUnlock()
	}
	return out
}

// All returns every document, ordered by id. Intended for persistence
// and small collections. Shards are read one at a time, so concurrent
// writes to other shards may or may not be included.
func (c *Collection) All() []Document {
	var out []Document
	for _, sh := range c.shards {
		sh.mu.RLock()
		for _, rec := range sh.docs {
			out = append(out, sh.document(rec))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Query runs an exact top-k search by cosine similarity. Each shard is
// scanned — and its hits materialized — under that shard's read lock alone;
// every lock is released before the cross-shard merge, so writers never
// wait behind merge or sort work.
func (c *Collection) Query(req QueryRequest) ([]Result, error) {
	var start time.Time
	if c.hooks.ObserveQuery != nil {
		start = time.Now()
	}
	if req.TopK <= 0 {
		req.TopK = 10
	}
	// Nothing below is sized by more.
	req.TopK = min(req.TopK, c.Count())
	q := req.Embedding
	switch {
	case len(q) == 0 && req.Text == "":
		return nil, fmt.Errorf("vectordb: query needs Text or Embedding")
	case len(q) == 0:
		var acc *embedding.Accumulator
		q, acc = embedding.Borrow(c.cfg.Encoder, req.Text)
		defer acc.Release()
	case len(q) != c.dim:
		return nil, fmt.Errorf("vectordb: query embedding has %d dimensions, collection %q indexes %d", len(q), c.name, c.dim)
	default:
		// Rows hold unit vectors, so ⟨q, v⟩ is cosine once q is unit too.
		// Normalizing a copy is exact, not approximate: cosine similarity
		// is invariant under query scaling.
		q = embedding.Clone(q)
		embedding.NormalizeInPlace(q)
	}
	match, err := compileFilter(req.Where)
	if err != nil {
		return nil, fmt.Errorf("vectordb: bad Where filter: %w", err)
	}

	hits := make([]embedding.Hit[string], 0, req.TopK)
	results := make([]Result, 0, req.TopK)
	for _, sh := range c.shards {
		sh.mu.RLock()
		for _, h := range sh.search(q, match, req.TopK, hits) {
			d := sh.docs[h.ID]
			dist := 0 - h.Score // not -h.Score: an exact match is at +0, as in the flat scan
			results = append(results, Result{
				ID:         d.ID,
				Text:       d.Text,
				Metadata:   d.Metadata,
				Distance:   dist,
				Similarity: 1 - dist,
			})
		}
		sh.mu.RUnlock()
	}
	// Merge: each shard's hits are already its local top-k; a global
	// sort of at most k·shards rows picks the collection-wide top-k with
	// the same (distance, id) order a single-shard scan would produce.
	sort.Slice(results, func(i, j int) bool {
		if results[i].Distance != results[j].Distance {
			return results[i].Distance < results[j].Distance
		}
		return results[i].ID < results[j].ID
	})
	if len(results) > req.TopK {
		results = results[:req.TopK]
	}
	if c.hooks.ObserveQuery != nil {
		c.hooks.ObserveQuery(c.name, time.Since(start))
	}
	return results, nil
}

// observeShardDocs reports the affected shards' live document counts to
// the telemetry hook after a write.
func (c *Collection) observeShardDocs(idxs []int) {
	if c.hooks.SetShardDocs == nil {
		return
	}
	for _, i := range idxs {
		sh := c.shards[i]
		sh.mu.RLock()
		n := len(sh.docs)
		sh.mu.RUnlock()
		c.hooks.SetShardDocs(c.name, c.shardNames[i], n)
	}
}

// DB is a set of named collections, the top-level handle mirroring a
// ChromaDB client. All methods are safe for concurrent use. New builds
// an in-memory database; Open (durable.go) builds one whose collections
// write ahead to disk and survive crashes.
type DB struct {
	mu          sync.RWMutex
	collections map[string]*Collection
	hooks       Hooks

	// Durability; zero for in-memory databases.
	dir  string
	opts OpenOptions
	man  manifest
}

// New returns an empty in-memory database.
func New() *DB {
	return &DB{collections: make(map[string]*Collection)}
}

// SetHooks installs observer hooks on the database. Hooks apply to
// collections created afterwards; call it before CreateCollection.
func (db *DB) SetHooks(h Hooks) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.hooks = h
}

// CreateCollection creates a new collection. It fails if the name exists.
func (db *DB) CreateCollection(name string, cfg CollectionConfig) (*Collection, error) {
	if name == "" {
		return nil, fmt.Errorf("vectordb: empty collection name")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.collections[name]; exists {
		return nil, fmt.Errorf("vectordb: collection %q already exists", name)
	}
	return db.createLocked(name, cfg)
}

// GetOrCreateCollection returns the named collection, creating it with
// cfg if absent.
func (db *DB) GetOrCreateCollection(name string, cfg CollectionConfig) (*Collection, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if c, ok := db.collections[name]; ok {
		return c, nil
	}
	if name == "" {
		return nil, fmt.Errorf("vectordb: empty collection name")
	}
	return db.createLocked(name, cfg)
}

// createLocked builds a collection and, on a durable database, arms its
// WAL and registers it in the on-disk manifest. Caller holds db.mu.
func (db *DB) createLocked(name string, cfg CollectionConfig) (*Collection, error) {
	c := newCollection(name, cfg)
	c.hooks = db.hooks
	if db.dir != "" {
		if err := db.armLocked(c); err != nil {
			return nil, err
		}
	}
	db.collections[name] = c
	return c, nil
}

// ListCollections returns the sorted names of all collections.
func (db *DB) ListCollections() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.collections))
	for n := range db.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
