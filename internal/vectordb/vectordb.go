// Package vectordb implements an embedded vector database modeled on
// ChromaDB, the storage-layer component of LLM-MS.
//
// The database stores named collections of documents. Each document has a
// caller-supplied id, raw text, a dense embedding, and optional metadata.
// Collections answer top-k nearest-neighbor queries under cosine, L2, or
// inner-product distance, optionally restricted by a Chroma-style metadata
// filter ($eq/$ne/$gt/$gte/$lt/$lte/$in/$nin composed with $and/$or) and a
// document-content filter ($contains/$not_contains).
//
// Two index implementations back the search: an exact flat index and an
// HNSW (hierarchical navigable small world) graph, matching the index
// family the paper's deployment uses ("cosine similarity with an HNSW
// index", §7.1).
//
// Every collection is split by document-id hash into independently locked
// shards (see shard.go), so concurrent upserts and queries contend on
// 1/N of the key space instead of one collection-wide lock. Queries fan
// out across shards and k-way merge by distance after every read lock is
// released.
//
// Two persistence layers exist: Save/Load write point-in-time JSON
// snapshots (persist.go), and Open arms a durable database where every
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

// Distance identifies the metric a collection uses for nearest-neighbor
// search.
type Distance string

// Supported distance metrics.
const (
	// Cosine distance: 1 − cosine similarity. The LLM-MS default.
	Cosine Distance = "cosine"
	// L2 is squared Euclidean distance.
	L2 Distance = "l2"
	// InnerProduct distance: −⟨a,b⟩.
	InnerProduct Distance = "ip"
)

// distFunc computes a distance between two vectors. Indexes hold one so
// a collection can swap the general metric for a cheaper equivalent (the
// unit-cosine fast path) without the indexes knowing why.
type distFunc func(a, b embedding.Vector) float64

// unitCosineDistance is cosine distance specialized to unit-or-zero
// vectors: one dot product, no norm recomputation. Numerically equal to
// Distance(Cosine).distance on such vectors; shards install it only
// while every stored embedding (and the query) upholds the invariant.
func unitCosineDistance(a, b embedding.Vector) float64 {
	return 1 - embedding.CosineUnit(a, b)
}

// distance computes the configured metric between two vectors.
func (d Distance) distance(a, b embedding.Vector) float64 {
	switch d {
	case L2:
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		var s float64
		for i := 0; i < n; i++ {
			diff := float64(a[i]) - float64(b[i])
			s += diff * diff
		}
		return s
	case InnerProduct:
		return -embedding.Dot(a, b)
	default: // Cosine
		return 1 - embedding.Cosine(a, b)
	}
}

// similarity converts a distance back to a similarity score where larger
// is better, for caller convenience.
func (d Distance) similarity(dist float64) float64 {
	switch d {
	case L2:
		return -dist
	case InnerProduct:
		return -dist
	default:
		return 1 - dist
	}
}

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
	// Distance under the collection metric (smaller is closer).
	Distance float64
	// Similarity is the metric-appropriate "larger is better" score; for
	// cosine collections it is the cosine similarity.
	Similarity float64
}

// QueryRequest describes a search against a collection. Exactly one of
// Text or Embedding must be set.
type QueryRequest struct {
	// Text is embedded with the collection encoder.
	Text string
	// Embedding queries with a precomputed vector.
	Embedding embedding.Vector
	// TopK is the number of results; defaults to 10.
	TopK int
	// Where filters on metadata (Chroma operator syntax); nil matches all.
	Where Metadata
	// WhereDocument filters on document text, e.g.
	// {"$contains": "visa"}; nil matches all.
	WhereDocument Metadata
}

// CollectionConfig controls collection creation.
type CollectionConfig struct {
	// Metric is the distance function; defaults to Cosine.
	Metric Distance
	// Encoder embeds Text on Add/Query when no explicit embedding is
	// given; defaults to embedding.Default().
	Encoder embedding.Encoder
	// Index selects the ANN structure: "flat" (exact, default) or "hnsw".
	Index string
	// HNSW tunes the graph index when Index == "hnsw".
	HNSW HNSWConfig
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
// each shard with its own search index and RWMutex. All methods are safe
// for concurrent use.
type Collection struct {
	name       string
	cfg        CollectionConfig
	shards     []*shard
	shardNames []string // per-shard metric label values, precomputed
	hooks      Hooks

	// Durability; all nil/zero for in-memory collections.
	wal          *wal
	snapFile     string // snapshot path, absolute
	compactBytes int64
	compacting   atomic.Bool
}

// index is the internal ANN interface implemented by flatIndex and
// hnswIndex. Implementations are NOT thread-safe; the owning shard
// serializes access.
type index interface {
	add(id string, v embedding.Vector)
	remove(id string)
	// setDist replaces the index's distance function. Callers only swap
	// between functions that agree on every vector currently stored, so
	// existing structure (HNSW links) stays valid.
	setDist(distFunc)
	// search returns up to k candidate ids ordered by increasing
	// distance, considering only ids accepted by allow (nil allows all).
	// Approximate indexes may consult more than k nodes internally.
	search(q embedding.Vector, k int, allow func(string) bool) []candidate
	// len reports the number of live entries.
	len() int
}

type candidate struct {
	id   string
	dist float64
}

// newCollection builds an empty collection, normalizing config defaults.
func newCollection(name string, cfg CollectionConfig) *Collection {
	if cfg.Metric == "" {
		cfg.Metric = Cosine
	}
	if cfg.Encoder == nil {
		cfg.Encoder = embedding.Default()
	}
	if cfg.Index == "" {
		cfg.Index = "flat"
	}
	cfg.HNSW = cfg.HNSW.withDefaults()
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards()
	}
	c := &Collection{
		name:       name,
		cfg:        cfg,
		shards:     make([]*shard, cfg.Shards),
		shardNames: make([]string, cfg.Shards),
	}
	for i := range c.shards {
		c.shards[i] = newShard(cfg, i)
		c.shardNames[i] = fmt.Sprintf("%d", i)
	}
	return c
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Metric returns the collection's distance metric.
func (c *Collection) Metric() Distance { return c.cfg.Metric }

// Shards returns the number of shards the collection is split into.
func (c *Collection) Shards() int { return len(c.shards) }

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

// Add inserts documents. Documents without an embedding are embedded from
// their text with the collection encoder. Adding an existing id fails;
// use Upsert to replace.
func (c *Collection) Add(docs ...Document) error {
	return c.write(docs, false, true)
}

// Upsert inserts documents, replacing any existing documents with the
// same ids.
func (c *Collection) Upsert(docs ...Document) error {
	return c.write(docs, true, true)
}

// write is the shared insert path. Embeddings are resolved outside any
// lock; the involved shards are then locked in ascending index order
// (the global order that keeps multi-shard writes deadlock-free), the
// documents applied, and — for durable collections — the WAL record
// enqueued before the locks drop, so log order always matches apply
// order for any given document. The caller then waits for the group
// commit to make the write durable before it is acknowledged.
func (c *Collection) write(docs []Document, replace, logWAL bool) error {
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
	if !replace {
		for i := range pp {
			if _, exists := c.shards[pp[i].shard].docs[pp[i].doc.ID]; exists {
				c.unlockShards(idxs)
				return fmt.Errorf("vectordb: duplicate id %q in collection %q", pp[i].doc.ID, c.name)
			}
		}
	}
	for i := range pp {
		c.shards[pp[i].shard].insertLocked(pp[i], c.cfg.Metric)
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

// prepared is a document ready for insertion: embedding resolved and
// cloned, fast-path impact precomputed, target shard chosen.
type prepared struct {
	doc        Document
	shard      int
	breaksUnit bool
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
		breaksUnit := false
		if len(d.Embedding) == 0 {
			// Encoder output is unit (or zero) by contract — no check needed.
			d.Embedding = c.cfg.Encoder.Encode(d.Text)
		} else {
			d.Embedding = embedding.Clone(d.Embedding)
			if c.cfg.Metric == Cosine {
				if n := embedding.Norm(d.Embedding); n != 0 && math.Abs(n-1) > 1e-4 {
					// An explicit non-unit embedding breaks the fast path's
					// invariant for its shard: that shard falls back to the
					// norm-recomputing cosine for every comparison from here on.
					breaksUnit = true
				}
			}
		}
		pp[i] = prepared{doc: d, shard: c.shardIndex(d.ID), breaksUnit: breaksUnit}
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
		sh := c.shards[c.shardIndex(id)]
		if _, ok := sh.docs[id]; ok {
			delete(sh.docs, id)
			sh.index.remove(id)
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

// DeleteWhere removes every document whose metadata matches the filter
// (the ChromaDB delete-with-where operation). It returns how many
// documents were removed; an invalid filter is an error. Unlike Query,
// it locks every shard at once so the scan is a consistent point-in-time
// cut of the collection.
func (c *Collection) DeleteWhere(where Metadata) (int, error) {
	match, err := compileFilter(where)
	if err != nil {
		return 0, err
	}
	idxs := allShards(len(c.shards))
	c.lockShards(idxs)
	var doomed []string
	for _, sh := range c.shards {
		for id, d := range sh.docs {
			if match(d.Metadata) {
				doomed = append(doomed, id)
			}
		}
	}
	for _, id := range doomed {
		sh := c.shards[c.shardIndex(id)]
		delete(sh.docs, id)
		sh.index.remove(id)
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
		if d, ok := sh.docs[id]; ok {
			cp := *d
			cp.Embedding = embedding.Clone(d.Embedding)
			out = append(out, cp)
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
		for _, d := range sh.docs {
			cp := *d
			cp.Embedding = embedding.Clone(d.Embedding)
			out = append(out, cp)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Query runs a top-k nearest-neighbor search. Each shard is searched —
// and its hits materialized — under that shard's read lock alone; every
// lock is released before the cross-shard merge, so writers never wait
// behind merge or sort work.
func (c *Collection) Query(req QueryRequest) ([]Result, error) {
	var start time.Time
	if c.hooks.ObserveQuery != nil {
		start = time.Now()
	}
	if req.TopK <= 0 {
		req.TopK = 10
	}
	// Nothing below (results, HNSW's beam and visited set) is sized by more.
	req.TopK = min(req.TopK, c.Count())
	q := req.Embedding
	if len(q) == 0 {
		if req.Text == "" {
			return nil, fmt.Errorf("vectordb: query needs Text or Embedding")
		}
		var acc *embedding.Accumulator
		q, acc = embedding.Borrow(c.cfg.Encoder, req.Text)
		defer acc.Release()
	} else if c.cfg.Metric == Cosine {
		// The fast path needs a unit query too. Normalizing a copy is
		// exact, not approximate: cosine similarity is invariant under
		// query scaling. Checked outside the locks against the config
		// metric; whether a shard is still on the fast path is its own
		// business, and a normalized query is equally correct on the
		// slow path.
		q = embedding.Clone(q)
		embedding.NormalizeInPlace(q)
	}

	var metaFilter filter
	if req.Where != nil {
		f, err := compileFilter(req.Where)
		if err != nil {
			return nil, fmt.Errorf("vectordb: bad Where filter: %w", err)
		}
		metaFilter = f
	}
	var docFilter docPredicate
	if req.WhereDocument != nil {
		f, err := compileDocFilter(req.WhereDocument)
		if err != nil {
			return nil, fmt.Errorf("vectordb: bad WhereDocument filter: %w", err)
		}
		docFilter = f
	}

	results := make([]Result, 0, req.TopK)
	for _, sh := range c.shards {
		sh.mu.RLock()
		var allow func(string) bool
		if metaFilter != nil || docFilter != nil {
			docs := sh.docs
			allow = func(id string) bool {
				d, ok := docs[id]
				if !ok {
					return false
				}
				if metaFilter != nil && !metaFilter(d.Metadata) {
					return false
				}
				if docFilter != nil && !docFilter(d.Text) {
					return false
				}
				return true
			}
		}
		cands := sh.index.search(q, req.TopK, allow)
		for _, cand := range cands {
			d := sh.docs[cand.id]
			results = append(results, Result{
				ID:         d.ID,
				Text:       d.Text,
				Metadata:   d.Metadata,
				Distance:   cand.dist,
				Similarity: c.cfg.Metric.similarity(cand.dist),
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

// Collection returns the named collection.
func (db *DB) Collection(name string) (*Collection, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.collections[name]
	if !ok {
		return nil, fmt.Errorf("vectordb: no collection %q", name)
	}
	return c, nil
}

// DeleteCollection removes the named collection and all its documents,
// including its on-disk state on durable databases.
func (db *DB) DeleteCollection(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.collections[name]
	if !ok {
		return fmt.Errorf("vectordb: no collection %q", name)
	}
	if db.dir != "" {
		if err := db.disarmLocked(c); err != nil {
			return err
		}
	}
	delete(db.collections, name)
	return nil
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
