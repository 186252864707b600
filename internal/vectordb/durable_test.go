package vectordb

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"llmms/internal/embedding"
)

func TestOpenWriteCloseReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("docs", CollectionConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Add(Document{
			ID:       fmt.Sprintf("d%d", i),
			Text:     fmt.Sprintf("document number %d about topic %d", i, i%3),
			Metadata: Metadata{"n": i},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Delete("d3", "d7", "missing"); got != 2 {
		t.Fatalf("deleted %d, want 2", got)
	}
	nomic, err := embedding.Lookup(embedding.ModelNomic)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateCollection("other", CollectionConfig{Encoder: nomic, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2, err := db2.Collection("docs")
	if err != nil {
		t.Fatal(err)
	}
	if c2.Count() != 18 {
		t.Fatalf("recovered %d docs, want 18", c2.Count())
	}
	if len(c2.Get("d3")) != 0 {
		t.Fatal("deleted document survived restart")
	}
	got := c2.Get("d5")
	if len(got) != 1 || got[0].Text != "document number 5 about topic 2" {
		t.Fatalf("recovered doc wrong: %+v", got)
	}
	res, err := c2.Query(QueryRequest{Text: "document about topic 1", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("query after recovery returned %d results", len(res))
	}
	if names := db2.ListCollections(); len(names) != 2 {
		t.Fatalf("collections after reopen: %v", names)
	}
	// A collection's configuration comes back from the manifest.
	other, err := db2.Collection("other")
	if err != nil {
		t.Fatal(err)
	}
	if other.cfg.Encoder.Name() != embedding.ModelNomic || other.Shards() != 3 {
		t.Fatalf("collection \"other\" mis-restored: encoder %s, %d shards", other.cfg.Encoder.Name(), other.Shards())
	}
	// A clean Close cuts a snapshot and empties the log.
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range m.Collections {
		if fi, ok := statFile(filepath.Join(dir, h.WAL)); ok && fi.Size() != 0 {
			t.Fatalf("wal %s not truncated after Close: %d bytes", h.WAL, fi.Size())
		}
	}
}

// TestOpenUpgradesVersion1Manifest: a directory from before the WAL — a
// version-1 manifest over plain snapshots, which nothing in the program
// writes any more — still opens with its documents and configuration, and
// is a durable database from then on.
func TestOpenUpgradesVersion1Manifest(t *testing.T) {
	dir := t.TempDir()
	src, err := New().CreateCollection("facts", CollectionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Add(Document{ID: "a", Text: "the yen is the currency of japan"}); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONAtomic(filepath.Join(dir, "col_0.json"), src.All(), SyncNone); err != nil {
		t.Fatal(err)
	}
	v1 := manifest{Version: 1, Collections: []collectionHeader{{
		Name: "facts", File: "col_0.json", Metric: "cosine", Index: "flat", Encoder: src.cfg.Encoder.Name(),
	}}}
	if err := writeJSONAtomic(filepath.Join(dir, manifestName), v1, SyncNone); err != nil {
		t.Fatal(err)
	}

	db, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.Collection("facts")
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != 1 {
		t.Fatalf("version-1 collection mis-restored: %d docs", c.Count())
	}
	if err := c.Add(Document{ID: "b", Text: "water boils at one hundred degrees celsius"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 2 || m.NextFile != 1 || m.Collections[0].WAL == "" {
		t.Fatalf("manifest after the upgrade: %+v", m)
	}
	db2, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if c2, err := db2.Collection("facts"); err != nil || c2.Count() != 2 {
		t.Fatalf("upgraded database lost a write across reopen: %v", err)
	}
}

// headManifest is a manifest as the database wrote it while a collection
// could choose its metric and index: every header names both, and the
// HNSW parameters it did not use.
const headManifest = `{"version":2,"collections":[{"name":"docs","file":"col_0.json","metric":"cosine","index":"flat",` +
	`"encoder":"llmms-minihash","hnsw":{"M":16,"EfConstruction":200,"EfSearch":64,"Seed":1,"RebuildTombstoneRatio":0.5},` +
	`"wal":"wal_0.log","shards":4}],"next_file":1}`

// TestOpenHeadFormatDataDir: a data directory from before the metric and
// index were retired — that manifest over a snapshot and a WAL tail —
// opens with every document, and answers each query as the collection
// that wrote it did, bit for bit.
func TestOpenHeadFormatDataDir(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, OpenOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("docs", CollectionConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := c.Upsert(Document{ID: fmt.Sprintf("d%d", i), Text: fmt.Sprintf("doc %d about subject %d", i, i%4),
			Metadata: Metadata{"doc_id": fmt.Sprint(i % 3)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, OpenOptions{Sync: SyncAlways}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if c, err = db.Collection("docs"); err != nil {
		t.Fatal(err)
	}
	// The tail: writes after the snapshot, in the log alone.
	if err := c.Upsert(Document{ID: "d3", Text: "doc 3 rewritten about subject 0", Metadata: Metadata{"doc_id": "0"}},
		Document{ID: "tail", Text: "a tail doc about subject 2", Metadata: Metadata{"doc_id": "2"}}); err != nil {
		t.Fatal(err)
	}
	c.Delete("d5")

	head := t.TempDir()
	copyDataDir(t, dir, head)
	if fi, ok := statFile(filepath.Join(head, "wal_0.log")); !ok || fi.Size() == 0 {
		t.Fatal("no WAL tail to replay")
	}
	if err := os.WriteFile(filepath.Join(head, manifestName), []byte(headManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(head, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	c2, err := reopened.Collection("docs")
	if err != nil {
		t.Fatal(err)
	}
	if c2.Count() != c.Count() || c2.Shards() != 4 {
		t.Fatalf("reopened %d documents in %d shards, want %d in 4", c2.Count(), c2.Shards(), c.Count())
	}
	for _, req := range []QueryRequest{
		{Text: "doc about subject 2", TopK: 20},
		{Text: "rewritten", TopK: 3},
		{Text: "subject 1", TopK: 20, Where: Metadata{"doc_id": "1"}},
	} {
		want, err := c.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c2.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d results, want %d", req.Text, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
				t.Fatalf("%q: result %d is %s at %v, want %s at %v", req.Text, i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
			}
		}
	}
}

// refusedHeaders are manifests Open must refuse, each naming its one
// collection, "bad": another distance or index than exact cosine, a file
// outside the data directory, a shard count no collection is built with.
var refusedHeaders = []string{
	`{"version":2,"collections":[{"name":"bad","file":"col_0.json","metric":"l2","index":"flat","encoder":"llmms-minihash","wal":"wal_0.log"}]}`,
	`{"version":2,"collections":[{"name":"bad","file":"col_0.json","metric":"ip","index":"flat","encoder":"llmms-minihash","wal":"wal_0.log"}]}`,
	`{"version":2,"collections":[{"name":"bad","file":"col_0.json","metric":"cosine","index":"hnsw","encoder":"llmms-minihash","wal":"wal_0.log"}]}`,
	`{"version":1,"collections":[{"name":"bad","file":"col_0.json","metric":"l2","index":"hnsw","encoder":"llmms-minihash"}]}`,
	`{"version":2,"collections":[{"name":"bad","file":"../col_0.json","encoder":"llmms-minihash","wal":"wal_0.log"}]}`,
	`{"version":2,"collections":[{"name":"bad","file":"col_0.json","encoder":"llmms-minihash","wal":"/tmp/wal_0.log"}]}`,
	`{"version":2,"collections":[{"name":"bad","file":"col_0.json","encoder":"llmms-minihash","wal":"wal_0.log","shards":1000000000000}]}`,
}

func TestOpenRefusesRetiredSearches(t *testing.T) {
	for _, raw := range refusedHeaders {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir, OpenOptions{})
		if err == nil {
			db.Close()
			t.Fatalf("Open accepted %s", raw)
		}
		if !strings.Contains(err.Error(), `"bad"`) {
			t.Fatalf("Open's error %q does not name the collection", err)
		}
	}
}

// FuzzOpenManifest: Open on any manifest.json returns an error or a
// database, and never panics.
func FuzzOpenManifest(f *testing.F) {
	f.Add(headManifest)
	f.Add(`{"version":1,"collections":[{"name":"facts","file":"col_0.json","metric":"cosine","index":"flat","encoder":"llmms-minihash"}]}`)
	f.Add(`{"version":2,"collections":[{"name":"a","file":"col_0.json","encoder":"llmms-minihash","wal":"wal_0.log","shards":2},` +
		`{"name":"b","file":"col_1.json","encoder":"nomic-embed-text","wal":"wal_1.log"}],"next_file":2}`)
	for _, raw := range refusedHeaders {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir, OpenOptions{Sync: SyncNone})
		if err != nil {
			return
		}
		for _, name := range db.ListCollections() {
			c, err := db.Collection(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Query(QueryRequest{Text: "anything", TopK: 3}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOpenCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, OpenOptions{}); err == nil {
		t.Fatal("expected error for corrupt manifest")
	}
}

// TestFailedOpenLeavesNoFileOpen: an Open that fails part way through
// recovery holds no file of the data directory open afterwards — not the
// log of a collection it had already recovered, nor one of the collection
// that failed.
func TestFailedOpenLeavesNoFileOpen(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to list open files")
	}
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, dir string)
	}{
		{"a later snapshot does not parse", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "col_1.json"), []byte("{"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"an interrupted compaction cannot finish", func(t *testing.T, dir string) {
			// A rotated log to replay, and a directory where the fresh
			// snapshot's temporary file must go.
			if err := os.Rename(filepath.Join(dir, "wal_0.log"), filepath.Join(dir, "wal_0.log.old")); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(filepath.Join(dir, "col_0.json.tmp"), 0o755); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"a", "b"} {
				c, err := db.CreateCollection(name, CollectionConfig{Shards: 2})
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Upsert(Document{ID: "d", Text: "the cat sat"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			tc.spoil(t, dir)
			if db, err := Open(dir, OpenOptions{}); err == nil {
				db.Close()
				t.Fatal("Open succeeded")
			}
			fds, err := os.ReadDir("/proc/self/fd")
			if err != nil {
				t.Fatal(err)
			}
			for _, fd := range fds {
				if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
					t.Errorf("the failed Open left %s open", target)
				}
			}
		})
	}
}

func TestOpenRecoversWithoutClose(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, OpenOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("docs", CollectionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Upsert(Document{ID: fmt.Sprintf("d%d", i), Text: fmt.Sprintf("text %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate a crash. Everything acknowledged under
	// SyncAlways must come back from the WAL alone.
	db2, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2, err := db2.Collection("docs")
	if err != nil {
		t.Fatal(err)
	}
	if c2.Count() != 10 {
		t.Fatalf("recovered %d docs, want 10", c2.Count())
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	var compactions atomic.Int64
	db, err := Open(dir, OpenOptions{
		Hooks: Hooks{IncCompaction: func(string) { compactions.Add(1) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("docs", CollectionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c.compactBytes = 1 // every durable write passes the threshold
	for i := 0; i < 25; i++ {
		if err := c.Upsert(Document{ID: fmt.Sprintf("d%d", i), Text: fmt.Sprintf("text %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for compactions.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if compactions.Load() == 0 {
		t.Fatal("no compaction ran")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := statFile(filepath.Join(dir, "wal_0.log.old")); ok {
		t.Fatal("rotated wal left behind after Close")
	}
	db2, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2, err := db2.Collection("docs")
	if err != nil {
		t.Fatal(err)
	}
	if c2.Count() != 25 {
		t.Fatalf("recovered %d docs across compactions, want 25", c2.Count())
	}
}

func TestDeleteCollectionDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("gone", CollectionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Document{ID: "x", Text: "ephemeral"}); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteCollection("gone"); err != nil {
		t.Fatal(err)
	}
	if _, ok := statFile(filepath.Join(dir, "col_0.json")); ok {
		t.Fatal("snapshot file survived DeleteCollection")
	}
	if _, ok := statFile(filepath.Join(dir, "wal_0.log")); ok {
		t.Fatal("wal file survived DeleteCollection")
	}
	// File ids are not reused: the next collection gets a fresh number.
	if _, err := db.CreateCollection("next", CollectionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := statFile(filepath.Join(dir, "col_1.json")); !ok {
		t.Fatal("new collection did not get the next file id")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if names := db2.ListCollections(); len(names) != 1 || names[0] != "next" {
		t.Fatalf("collections after reopen: %v", names)
	}
}

// walOp is one acknowledged write in the crash-recovery property test.
type walOp struct {
	upsert []Document
	del    []string
}

func applyOps(model map[string]Document, ops []walOp) {
	for _, op := range ops {
		for _, d := range op.upsert {
			model[d.ID] = d
		}
		for _, id := range op.del {
			delete(model, id)
		}
	}
}

// TestCrashRecoveryPrefix is the crash-recovery property test: writing
// acknowledged operations, killing the log at an arbitrary byte offset,
// and reopening yields exactly the operations whose frames survived
// intact — a prefix of the acknowledged writes, with any torn final
// record discarded by the CRC check — and queries over the recovered
// collection match a never-crashed collection holding the same state.
func TestCrashRecoveryPrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, OpenOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("docs", CollectionConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ops []walOp
	for i := 0; i < 18; i++ {
		switch {
		case i%5 == 4:
			ids := []string{fmt.Sprintf("d%d", i-2)}
			c.Delete(ids...)
			ops = append(ops, walOp{del: ids})
		case i%7 == 3: // multi-document batch spanning shards
			batch := []Document{
				{ID: fmt.Sprintf("d%d", i), Text: fmt.Sprintf("batch doc %d", i)},
				{ID: fmt.Sprintf("d%db", i), Text: fmt.Sprintf("batch doc %d sibling", i)},
			}
			if err := c.Upsert(batch...); err != nil {
				t.Fatal(err)
			}
			ops = append(ops, walOp{upsert: batch})
		default:
			d := Document{ID: fmt.Sprintf("d%d", i), Text: fmt.Sprintf("doc %d about subject %d", i, i%4)}
			if err := c.Upsert(d); err != nil {
				t.Fatal(err)
			}
			ops = append(ops, walOp{upsert: []Document{d}})
		}
	}
	// No Close: the WAL is the only durable copy of these writes.
	walRaw, err := os.ReadFile(filepath.Join(dir, "wal_0.log"))
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries, recomputed from the length headers alone.
	var ends []int64
	off := int64(0)
	for off < int64(len(walRaw)) {
		n := int64(binary.LittleEndian.Uint32(walRaw[off : off+4]))
		off += walFrameHeader + n
		ends = append(ends, off)
	}
	if off != int64(len(walRaw)) || len(ends) != len(ops) {
		t.Fatalf("wal has %d frames over %d/%d bytes, want %d ops", len(ends), off, len(walRaw), len(ops))
	}

	// Kill points: every frame boundary, mid-header, and mid-payload.
	cuts := []int64{0, 3}
	for i, e := range ends {
		cuts = append(cuts, e)
		if i+1 < len(ends) {
			cuts = append(cuts, e+5, (e+ends[i+1])/2)
		}
	}
	framesBelow := func(cut int64) int {
		n := 0
		for _, e := range ends {
			if e <= cut {
				n++
			}
		}
		return n
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			crashDir := t.TempDir()
			copyDataDir(t, dir, crashDir)
			if err := os.Truncate(filepath.Join(crashDir, "wal_0.log"), cut); err != nil {
				t.Fatal(err)
			}
			verifyRecovered(t, crashDir, ops[:framesBelow(cut)])
		})
	}

	// Corrupting the final record's payload must discard it via CRC —
	// same outcome as truncating just before it.
	t.Run("corrupt-final-crc", func(t *testing.T) {
		crashDir := t.TempDir()
		copyDataDir(t, dir, crashDir)
		raw := append([]byte(nil), walRaw...)
		raw[len(raw)-1] ^= 0xff
		if err := os.WriteFile(filepath.Join(crashDir, "wal_0.log"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		verifyRecovered(t, crashDir, ops[:len(ops)-1])
	})
}

func copyDataDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// verifyRecovered opens crashDir and checks the recovered collection
// holds exactly the state after applying ops, and answers queries
// identically to a never-crashed in-memory collection of that state.
func verifyRecovered(t *testing.T, crashDir string, ops []walOp) {
	t.Helper()
	model := make(map[string]Document)
	applyOps(model, ops)

	db, err := Open(crashDir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := db.Collection("docs")
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != len(model) {
		t.Fatalf("recovered %d docs, want %d", c.Count(), len(model))
	}
	ref := newCollection("ref", CollectionConfig{Shards: 1})
	for id, d := range model {
		got := c.Get(id)
		if len(got) != 1 || got[0].Text != d.Text {
			t.Fatalf("doc %s: recovered %+v, want %+v", id, got, d)
		}
		if err := ref.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if len(model) == 0 {
		return
	}
	req := QueryRequest{Text: "doc about subject 2", TopK: len(model)}
	got, err := c.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered query returned %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("rank %d: %s != %s", i, got[i].ID, want[i].ID)
		}
		if d := math.Abs(got[i].Distance - want[i].Distance); d > 1e-9 {
			t.Fatalf("rank %d distance off by %g", i, d)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, ok := range []string{"batch", "always", "none"} {
		if _, err := ParseSyncPolicy(ok); err != nil {
			t.Errorf("ParseSyncPolicy(%q): %v", ok, err)
		}
	}
	if _, err := ParseSyncPolicy("fsync-sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}
