package vectordb

import (
	"encoding/json"
	"os"
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

func writeJSONAtomic(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
