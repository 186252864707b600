package vectordb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"llmms/internal/embedding"
)

// Durable databases. Open arms every collection with a write-ahead log
// under the JSON snapshot layer persist.go defines:
//
//	<dir>/manifest.json   collection headers + next file id (version 2)
//	<dir>/col_<i>.json    snapshot of collection i's documents
//	<dir>/wal_<i>.log     writes since that snapshot (see wal.go)
//
// Recovery = load snapshot, replay WAL tail (torn final record dropped
// by CRC), rebuild each shard's index in parallel. When the log passes a
// size threshold the collection compacts: the log rotates aside, a new
// snapshot is cut, and the rotated log is deleted; a crash anywhere in
// that sequence recovers, because rotated records are always applied
// in memory before the snapshot is cut, and replaying them again under
// the next boot is idempotent.

// OpenOptions configures a durable database.
type OpenOptions struct {
	// Sync is the WAL durability policy; defaults to SyncBatch. Snapshots
	// and the manifest are synced under every policy but SyncNone.
	Sync SyncPolicy
	// Hooks observes substrate activity (telemetry).
	Hooks Hooks
}

// compactBytes is the WAL size that triggers snapshot+truncate compaction.
const compactBytes = 8 << 20

// Open loads (or initializes) a durable database rooted at dir. Every
// collection is recovered to exactly the acknowledged-write prefix of
// its snapshot + WAL, and subsequent writes are logged before they are
// acknowledged. Close the database to cut final snapshots and release
// the logs.
func Open(dir string, opts OpenOptions) (*DB, error) {
	if opts.Sync == "" {
		opts.Sync = SyncBatch
	}
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vectordb: open %s: %w", dir, err)
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	db := New()
	db.dir = dir
	db.opts = opts
	db.hooks = opts.Hooks
	db.man = man
	for i := range db.man.Collections {
		c, err := db.recoverCollection(&db.man.Collections[i])
		if err != nil {
			db.closeWALs()
			return nil, err
		}
		db.collections[c.name] = c
	}
	if err := db.writeManifestLocked(); err != nil {
		db.closeWALs()
		return nil, err
	}
	if db.hooks.ObserveRecovery != nil {
		db.hooks.ObserveRecovery(time.Since(start))
	}
	return db, nil
}

// closeWALs releases the logs of the collections a failed Open armed;
// the error Open returns is the one to report.
func (db *DB) closeWALs() {
	for _, c := range db.collections {
		_ = c.wal.close()
	}
}

// readManifest loads <dir>/manifest.json, upgrading version-1 manifests
// (an earlier release's plain snapshots: no WAL names, no file counter) in
// memory, and refuses a header it cannot open (collectionHeader.check). A
// missing file is an empty database.
func readManifest(dir string) (manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return manifest{Version: 2}, nil
	}
	if err != nil {
		return manifest{}, fmt.Errorf("vectordb: open manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return manifest{}, fmt.Errorf("vectordb: parse manifest: %w", err)
	}
	if m.Version < 2 {
		for i := range m.Collections {
			if m.Collections[i].WAL == "" {
				m.Collections[i].WAL = fmt.Sprintf("wal_%d.log", i)
			}
		}
		m.Version = 2
	}
	for i := range m.Collections {
		h := &m.Collections[i]
		if err := h.check(); err != nil {
			return manifest{}, fmt.Errorf("vectordb: collection %q: %w", h.Name, err)
		}
		h.Metric, h.Index = "", ""
	}
	if m.NextFile < len(m.Collections) {
		m.NextFile = len(m.Collections)
	}
	return m, nil
}

// maxShards bounds the shard count a manifest may name: a collection is
// built with that many shards before anything else in it is read.
const maxShards = 4096

// check refuses a header naming a search other than exact cosine, a file
// that is not a plain name inside the data directory, or a shard count
// over maxShards.
func (h *collectionHeader) check() error {
	if (h.Metric != "" && h.Metric != "cosine") || (h.Index != "" && h.Index != "flat") {
		return fmt.Errorf("metric %q, index %q: only exact cosine search is supported", h.Metric, h.Index)
	}
	for _, name := range []string{h.File, h.WAL} {
		if filepath.Base(name) != name || !filepath.IsLocal(name) {
			return fmt.Errorf("file name %q is not a plain name in the data directory", name)
		}
	}
	if h.Shards > maxShards {
		return fmt.Errorf("%d shards, over the limit of %d", h.Shards, maxShards)
	}
	return nil
}

// recoverCollection rebuilds one collection from its snapshot and WAL
// and leaves it armed for further writes.
func (db *DB) recoverCollection(h *collectionHeader) (*Collection, error) {
	enc, err := embedding.Lookup(h.Encoder)
	if err != nil {
		return nil, fmt.Errorf("vectordb: collection %q: %w", h.Name, err)
	}
	c := newCollection(h.Name, CollectionConfig{Encoder: enc, Shards: h.Shards})
	c.hooks = db.hooks
	h.Shards = len(c.shards) // pin the resolved count for the next boot

	snapPath := filepath.Join(db.dir, h.File)
	snapRaw, err := os.ReadFile(snapPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("vectordb: load collection %q: %w", h.Name, err)
	}
	if len(snapRaw) > 0 {
		var docs []Document
		if err := json.Unmarshal(snapRaw, &docs); err != nil {
			return nil, fmt.Errorf("vectordb: parse collection %q: %w", h.Name, err)
		}
		if err := c.bulkLoad(docs); err != nil {
			return nil, fmt.Errorf("vectordb: rebuild collection %q: %w", h.Name, err)
		}
	}

	// Replay the rotated log of an interrupted compaction first, then the
	// live log: that is write order, and the live log carries every write
	// made after the rotation, so replaying a rotated record the snapshot
	// already covers converges to the right state.
	walPath := filepath.Join(db.dir, h.WAL)
	oldPath := walPath + ".old"
	var applyErr error
	apply := func(rec walRecord) {
		if applyErr == nil {
			applyErr = c.applyWAL(rec)
		}
	}
	_, hadOld := statFile(oldPath)
	if hadOld {
		if _, err := scanWAL(oldPath, apply); err != nil {
			return nil, fmt.Errorf("vectordb: replay %q: %w", h.Name, err)
		}
	}
	validLen, err := scanWAL(walPath, apply)
	if err != nil {
		return nil, fmt.Errorf("vectordb: replay %q: %w", h.Name, err)
	}
	if applyErr != nil {
		return nil, fmt.Errorf("vectordb: replay %q: %w", h.Name, applyErr)
	}

	if hadOld {
		// Finish the interrupted compaction: the rotated records are now
		// applied, so a fresh snapshot covers them and the file can go.
		// It comes before the log is opened, so a failure leaves no file
		// open.
		if err := writeJSONAtomic(snapPath, c.All(), db.opts.Sync); err != nil {
			return nil, fmt.Errorf("vectordb: compact %q: %w", h.Name, err)
		}
		if err := os.Remove(oldPath); err != nil {
			return nil, fmt.Errorf("vectordb: compact %q: %w", h.Name, err)
		}
	}
	w, err := openWAL(walPath, validLen, db.opts.Sync, db.walBytesHook(h.Name))
	if err != nil {
		return nil, fmt.Errorf("vectordb: open wal for %q: %w", h.Name, err)
	}
	c.wal = w
	c.snapFile = snapPath
	c.compactBytes = compactBytes
	c.observeShardDocs(allShards(len(c.shards)))
	return c, nil
}

func statFile(path string) (fs.FileInfo, bool) {
	fi, err := os.Stat(path)
	return fi, err == nil
}

// applyWAL re-applies one logged record during recovery. The collection
// has no armed WAL yet, so nothing is re-logged.
func (c *Collection) applyWAL(rec walRecord) error {
	switch rec.Op {
	case walOpUpsert:
		return c.write(rec.Docs, true, false)
	case walOpDelete:
		c.Delete(rec.IDs...)
		return nil
	}
	return fmt.Errorf("unknown wal op %q", rec.Op)
}

// bulkLoad inserts snapshot documents, filling each shard on its own
// goroutine into rows sized for the vectors it gets. Only used on fresh
// collections during recovery.
func (c *Collection) bulkLoad(docs []Document) error {
	pp, err := c.prepare(docs)
	if err != nil {
		return err
	}
	perShard, rows := make([][]prepared, len(c.shards)), make([]int, len(c.shards))
	for i := range pp {
		perShard[pp[i].shard] = append(perShard[pp[i].shard], pp[i])
		if pp[i].indexed {
			rows[pp[i].shard]++
		}
	}
	var wg sync.WaitGroup
	for si, batch := range perShard {
		if len(batch) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shard, batch []prepared, rows int) {
			defer wg.Done()
			sh.mu.Lock()
			sh.rows = embedding.NewRows[string](c.dim, rows)
			for i := range batch {
				sh.insertLocked(batch[i])
			}
			sh.mu.Unlock()
		}(c.shards[si], batch, rows[si])
	}
	wg.Wait()
	return nil
}

// walBytesHook adapts the database hook to the per-collection callback
// the WAL wants.
func (db *DB) walBytesHook(name string) func(int) {
	if db.hooks.AddWALBytes == nil {
		return nil
	}
	return func(n int) { db.hooks.AddWALBytes(name, n) }
}

// armLocked gives a newly created collection its on-disk files and
// registers it in the manifest. Caller holds db.mu on a durable DB.
func (db *DB) armLocked(c *Collection) error {
	n := db.man.NextFile
	h := collectionHeader{
		Name:    c.name,
		File:    fmt.Sprintf("col_%d.json", n),
		WAL:     fmt.Sprintf("wal_%d.log", n),
		Encoder: c.cfg.Encoder.Name(),
		Shards:  len(c.shards),
	}
	snapPath := filepath.Join(db.dir, h.File)
	if err := writeJSONAtomic(snapPath, []Document{}, db.opts.Sync); err != nil {
		return fmt.Errorf("vectordb: create collection %q: %w", c.name, err)
	}
	w, err := openWAL(filepath.Join(db.dir, h.WAL), 0, db.opts.Sync, db.walBytesHook(c.name))
	if err != nil {
		return fmt.Errorf("vectordb: create collection %q: %w", c.name, err)
	}
	c.wal = w
	c.snapFile = snapPath
	c.compactBytes = compactBytes
	db.man.NextFile = n + 1
	db.man.Collections = append(db.man.Collections, h)
	return db.writeManifestLocked()
}

// disarmLocked removes a collection's on-disk state. Caller holds db.mu
// on a durable DB.
func (db *DB) disarmLocked(c *Collection) error {
	c.waitCompaction()
	_ = c.wal.close()
	os.Remove(c.wal.path)
	os.Remove(c.wal.path + ".old")
	os.Remove(c.snapFile)
	kept := db.man.Collections[:0]
	for _, h := range db.man.Collections {
		if h.Name != c.name {
			kept = append(kept, h)
		}
	}
	db.man.Collections = kept
	return db.writeManifestLocked()
}

func (db *DB) writeManifestLocked() error {
	if err := writeJSONAtomic(filepath.Join(db.dir, manifestName), db.man, db.opts.Sync); err != nil {
		return fmt.Errorf("vectordb: write manifest: %w", err)
	}
	return nil
}

// maybeCompact kicks off a background compaction when the WAL passes the
// size threshold. At most one compaction per collection runs at a time;
// writes proceed concurrently throughout.
func (c *Collection) maybeCompact() {
	if c.wal == nil {
		return
	}
	if c.wal.sizeNow() < c.compactBytes {
		return
	}
	if !c.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer c.compacting.Store(false)
		_ = c.compact()
	}()
}

// compact rotates the WAL aside, cuts a snapshot that covers everything
// the rotated log held, and deletes the rotated log.
func (c *Collection) compact() error {
	oldPath := c.wal.path + ".old"
	if _, ok := statFile(oldPath); ok {
		// Leftover from a compaction that failed before snapshotting. Its
		// records are applied in memory, so snapshot first — rotating over
		// it could drop them from disk.
		if err := writeJSONAtomic(c.snapFile, c.All(), c.wal.policy); err != nil {
			return err
		}
		if err := os.Remove(oldPath); err != nil {
			return err
		}
	}
	if err := c.wal.rotate(oldPath); err != nil {
		return err
	}
	if err := writeJSONAtomic(c.snapFile, c.All(), c.wal.policy); err != nil {
		return err
	}
	if err := os.Remove(oldPath); err != nil {
		return err
	}
	if c.hooks.IncCompaction != nil {
		c.hooks.IncCompaction(c.name)
	}
	return nil
}

// waitCompaction blocks until no compaction is in flight.
func (c *Collection) waitCompaction() {
	for c.compacting.Load() {
		time.Sleep(time.Millisecond)
	}
}

// Close flushes and closes a durable database: outstanding WAL appends
// are synced, each collection cuts a final snapshot, and its emptied log
// is truncated so the next Open replays nothing. In-memory databases
// close as a no-op. The database rejects writes after Close.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.dir == "" {
		return nil
	}
	var firstErr error
	for _, name := range db.man.Collections {
		c, ok := db.collections[name.Name]
		if !ok || c.wal == nil {
			continue
		}
		c.waitCompaction()
		if err := c.wal.close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("vectordb: close wal %q: %w", c.name, err)
		}
		if err := writeJSONAtomic(c.snapFile, c.All(), db.opts.Sync); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("vectordb: final snapshot %q: %w", c.name, err)
			}
			continue // keep the WAL so the writes aren't lost
		}
		if err := os.Truncate(c.wal.path, 0); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("vectordb: truncate wal %q: %w", c.name, err)
		}
		os.Remove(c.wal.path + ".old")
	}
	return firstErr
}
