package vectordb

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// persistence file layout, Open's (durable.go) alone: <dir>/manifest.json
// names every collection and its configuration; <dir>/col_<i>.json holds that
// collection's documents (embeddings included). Indexes are rebuilt on load.

const manifestName = "manifest.json"

type manifest struct {
	Version     int                `json:"version"`
	Collections []collectionHeader `json:"collections"`
	// NextFile numbers the next col_<i>.json/wal_<i>.log pair, keeping
	// file ids stable across collection deletes. A version-1 manifest has
	// none; readManifest derives it.
	NextFile int `json:"next_file,omitempty"`
}

type collectionHeader struct {
	Name    string `json:"name"`
	File    string `json:"file"`
	Encoder string `json:"encoder"`
	// WAL and Shards are absent from a version-1 manifest.
	WAL    string `json:"wal,omitempty"`
	Shards int    `json:"shards,omitempty"`
	// Metric and Index are an older manifest's: it named each collection's
	// distance and index. readManifest accepts only the exact cosine
	// search this package has ("cosine", "flat"), and nothing writes them.
	Metric string `json:"metric,omitempty"`
	Index  string `json:"index,omitempty"`
}

// writeJSONAtomic replaces path with v's JSON through a temporary file and
// a rename. Under any policy but SyncNone the temporary file is synced
// before the rename and the directory after it, so the file is on disk
// when the call returns: compaction and Close delete or truncate the log
// a snapshot replaces right after writing it.
func writeJSONAtomic(path string, v any, policy SyncPolicy) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && policy != SyncNone {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if policy == SyncNone {
		return nil
	}
	return syncDir(filepath.Dir(path))
}

// syncDir makes the directory's entries — a rename into it — durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
