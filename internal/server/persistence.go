package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"llmms/internal/core"
	"llmms/internal/embedding"
	"llmms/internal/qcache"
	"llmms/internal/session"
	"llmms/internal/telemetry"
	"llmms/internal/vectordb"
)

// Server-side persistence over the memory substrate. With Options.DataDir
// set, the server's state survives restarts:
//
//	<data-dir>/vectordb/     durable vector database (documents, sessions)
//	<data-dir>/qcache.json   answer-cache warm-start snapshot
//
// The RAG chunk collection is recovered by the database itself (snapshot
// + WAL replay); the upload registry is rebuilt from chunk metadata.
// Sessions snapshot into a document of the durable "sessions" collection
// at Close. The answer cache reloads both tiers at boot, gated on a
// settings fingerprint so answers produced under different settings are
// never served; the snapshot is removed once read, so only a clean Close
// leaves one for the next boot. That is also why the fingerprint needs no
// document-set revision: a snapshot exists only between a clean Close and
// the next boot, a window no document write can fall in, and during a run
// every write drops the cached answers it makes stale.

// Data directory layout.
const (
	vectordbSubdir = "vectordb"
	qcacheFile     = "qcache.json"
)

// sessionStateDoc is the id of the "sessions" collection document
// holding the session.State snapshot. The zero-vector explicit embedding
// skips text encoding — the collection is a durable key-value slot here,
// never queried by similarity.
const sessionStateDoc = "state"

// routeClustersCollection is the durable collection behind the
// predictive-routing cluster index: one key-value-slot document per
// cluster, its centroid sum and reward stats in the JSON text, written
// behind the queries that change it (router.Predictor).
const routeClustersCollection = "route_clusters"

// docsConfig is the RAG chunk collection's: the default encoder, whose
// vectors the collection's exact search ranks by the distance the answer
// cache's drop passes recompute, so a chunk is in the top k precisely when
// that distance sorts it there.
var docsConfig = vectordb.CollectionConfig{Encoder: embedding.Default()}

// openSubstrate builds the server's vector database: durable under
// Options.DataDir (recovered inside a vectordb.recover span), in-memory
// otherwise. Either way the llmms_vectordb_* series observe it.
func openSubstrate(opts Options, tel *telemetry.Telemetry, tracer *telemetry.Tracer, logger *slog.Logger) (*vectordb.DB, *vectordb.Collection, error) {
	vm := telemetry.RegisterVectorDBMetrics(tel.Registry)
	hooks := vectordb.Hooks{
		ObserveQuery:    vm.ObserveQuery,
		ObserveInsert:   vm.ObserveInsert,
		AddWALBytes:     vm.AddWALBytes,
		IncCompaction:   vm.IncCompaction,
		SetShardDocs:    vm.SetShardDocs,
		ObserveRecovery: vm.ObserveRecovery,
	}
	if opts.DataDir == "" {
		db := vectordb.New()
		db.SetHooks(hooks)
		col, err := db.CreateCollection("documents", docsConfig)
		if err != nil {
			return nil, nil, err
		}
		return db, col, nil
	}

	dir := filepath.Join(opts.DataDir, vectordbSubdir)
	start := time.Now()
	_, span := tracer.StartRoot(context.Background(), "vectordb.recover")
	span.Hold() // past its End, until the boot trace below is stored
	defer span.Release()
	span.SetAttr("dir", dir)
	db, err := vectordb.Open(dir, vectordb.OpenOptions{
		Sync:  opts.WALSync,
		Hooks: hooks,
	})
	span.End(err)
	if err != nil {
		return nil, nil, err
	}
	col, err := db.GetOrCreateCollection("documents", docsConfig)
	if err != nil {
		return nil, nil, err
	}
	elapsed := time.Since(start)
	logger.Info("memory substrate recovered",
		"dir", dir,
		"collections", len(db.ListCollections()),
		"documents", col.Count(),
		"elapsed", elapsed)
	// A synthetic boot trace makes recovery inspectable at /api/traces
	// alongside query traces.
	tel.Traces.Put(telemetry.QueryTrace{
		ID:        telemetry.NewQueryID(),
		TraceID:   span.TraceID(),
		Strategy:  "boot",
		Query:     "vectordb.recover",
		Start:     start,
		Elapsed:   elapsed,
		Outcome:   "ok",
		SpanCount: 1,
	}, span)
	return db, col, nil
}

// restoreState rebuilds the server's in-memory registries from the data
// directory during construction (before any request is served, so no
// locking is needed beyond what the substrate does itself).
func (s *Server) restoreState() error {
	if s.dataDir == "" {
		return nil
	}

	// The upload registry is derived state: every recovered chunk names
	// its document and source file in metadata.
	for _, d := range s.docs.All() {
		docID, _ := d.Metadata["doc_id"].(string)
		if docID == "" {
			continue
		}
		info := s.docIDs[docID]
		if src, ok := d.Metadata["source"].(string); ok && info.Name == "" {
			info.Name = src
		}
		info.Chunks++
		s.docIDs[docID] = info
	}

	sessCol, err := s.db.GetOrCreateCollection("sessions", vectordb.CollectionConfig{Shards: 1})
	if err != nil {
		return err
	}
	s.sessCol = sessCol
	if docs := sessCol.Get(sessionStateDoc); len(docs) == 1 {
		var st session.State
		if err := json.Unmarshal([]byte(docs[0].Text), &st); err != nil {
			return fmt.Errorf("server: parse session state: %w", err)
		}
		n := s.sessions.Restore(st)
		s.logger.Info("sessions restored", "count", n)
	}

	if s.predictor != nil {
		col, err := s.db.GetOrCreateCollection(routeClustersCollection, vectordb.CollectionConfig{Shards: 1})
		if err != nil {
			return err
		}
		s.predictor.SetPersistence(col, func(err error) {
			s.logger.Warn("route cluster persist failed", "err", err)
		})
		n, err := s.predictor.Load()
		if err != nil {
			return fmt.Errorf("server: restore route clusters: %w", err)
		}
		s.logger.Info("route clusters restored", "clusters", n)
	}

	snapshot := filepath.Join(s.dataDir, qcacheFile)
	if s.cache != nil {
		ws, err := qcache.ReadWarmState(snapshot)
		if err != nil {
			// A snapshot is an optimisation: one torn by a crash mid-Close
			// costs a cold cache, never the boot.
			s.logger.Warn("answer cache snapshot ignored", "file", snapshot, "err", err)
			ws = &qcache.WarmState{}
		}
		fp := s.cacheFingerprint()
		n := s.cache.WarmStart(ws, fp, decodeCachedAnswer)
		s.logger.Info("answer cache warmed", "entries", n, "snapshot_entries", len(ws.Entries),
			"fingerprint_match", ws.Fingerprint == fp)
	}
	// A snapshot serves one boot. Close writes the next; after a crash there
	// is none, because the WAL may have recovered document writes that the
	// snapshot's answers predate.
	if err := os.Remove(snapshot); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("server: remove %s: %w", qcacheFile, err)
	}
	return nil
}

// Close persists the server's state and releases the substrate: the
// session store snapshots into its durable collection, the answer cache
// writes its warm-start file, the routing index writes what it has not
// flushed yet, and the database cuts final snapshots and closes its WALs.
// Without a data directory it is a no-op. The server must not serve
// requests afterwards.
func (s *Server) Close() error {
	if s.dataDir == "" {
		return nil
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.sessCol != nil {
		data, err := json.Marshal(s.sessions.Snapshot())
		if err == nil {
			err = s.sessCol.Upsert(vectordb.Document{
				ID:        sessionStateDoc,
				Text:      string(data),
				Embedding: embedding.Vector{0},
			})
		}
		keep(err)
	}
	if s.cache != nil {
		ws := s.cache.Snapshot(s.cacheFingerprint(), encodeCachedAnswer)
		keep(ws.WriteFile(filepath.Join(s.dataDir, qcacheFile)))
	}
	if s.predictor != nil {
		keep(s.predictor.Close())
	}
	keep(s.db.Close())
	return firstErr
}

// cacheFingerprint identifies the serving settings cached answers were
// produced under. A warm-start snapshot whose fingerprint differs —
// other strategy, model set, budget, weights or RAG parameters — is
// discarded at boot, the restart analogue of the flush-on-settings-change
// rule. The leading version names the snapshot format: v1 held one JSON
// payload per frame, v2 the rendered stream (cachedAnswerJSON) under a
// fingerprint ending in the document-set revision, v3 the same entries
// without it. A snapshot of another version is ignored whole rather than
// half-read.
func (s *Server) cacheFingerprint() string {
	s.mu.Lock()
	st := s.settings
	s.mu.Unlock()
	return fmt.Sprintf("v3|%s|%s|%d|%g|%g|%d",
		st.Strategy, strings.Join(st.EnabledModels, ","), st.MaxTokens,
		st.Alpha, st.Beta, st.RAGTopK)
}

// cachedAnswerJSON is the persisted form of a cachedAnswer. The stream is
// bytes and core.Result is plain data, so the round trip is lossless.
type cachedAnswerJSON struct {
	Stream     []byte      `json:"stream"`
	FrameCount int         `json:"frame_count"`
	Result     core.Result `json:"result"`
}

func encodeCachedAnswer(v any) ([]byte, error) {
	ca, ok := v.(*cachedAnswer)
	if !ok {
		return nil, fmt.Errorf("server: unexpected cache value %T", v)
	}
	return json.Marshal(cachedAnswerJSON{Stream: ca.stream, FrameCount: ca.frames, Result: ca.result})
}

// decodeCachedAnswer rejects an entry it could only replay as an empty
// answer: any JSON object decodes into the struct, so an entry of another
// shape shows as a missing stream or a result without a model. The result's
// JSON is derived, not stored: a decoded float is finite, so it encodes.
func decodeCachedAnswer(raw []byte) (any, error) {
	var cj cachedAnswerJSON
	if err := json.Unmarshal(raw, &cj); err != nil {
		return nil, err
	}
	if len(cj.Stream) == 0 || cj.FrameCount <= 0 || cj.Result.Model == "" {
		return nil, errors.New("server: cache entry has no recorded stream or no result model")
	}
	data, _ := appendResultJSON(nil, &cj.Result)
	return &cachedAnswer{stream: cj.Stream, frames: cj.FrameCount, result: cj.Result, resultJSON: data}, nil
}
