package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"llmms/internal/core"
	"llmms/internal/llm"
	"llmms/internal/qcache"
	"llmms/internal/truthfulqa"
)

// newDurableServer builds a server rooted at dataDir. Closing the
// returned httptest server does NOT call Server.Close — tests decide
// whether the shutdown is clean (Close) or a crash (nothing).
func newDurableServer(t *testing.T, dataDir string) (*Server, *httptest.Server) {
	t.Helper()
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	s, err := NewServer(Options{
		Engine:  engine,
		Serving: ServingOptions{CacheTTL: time.Minute},
		DataDir: dataDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// TestRestartRecoversStateAndServesWarmHit is the acceptance-criteria
// integration test: a restart with -data-dir set recovers every
// acknowledged document, restores sessions, and serves a qcache HIT on
// the first repeated query after boot.
func TestRestartRecoversStateAndServesWarmHit(t *testing.T) {
	dataDir := t.TempDir()
	s1, ts1 := newDurableServer(t, dataDir)

	var up struct {
		DocID  string `json:"doc_id"`
		Chunks int    `json:"chunks"`
	}
	resp := doJSON(t, "POST", ts1.URL+"/api/upload", map[string]any{
		"filename": "facts.txt",
		"content":  "The capital of France is Paris. Goldfish have months-long memories.",
	}, &up)
	if resp.StatusCode != 201 || up.Chunks == 0 {
		t.Fatalf("upload: status %d, %+v", resp.StatusCode, up)
	}

	q := map[string]any{"query": "What is the capital of France?"}
	r1, body1 := postQuery(t, ts1.URL, q)
	if r1.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first query X-Cache = %q, want MISS", r1.Header.Get("X-Cache"))
	}
	var sess struct {
		ID string `json:"id"`
	}
	doJSON(t, "POST", ts1.URL+"/api/sessions", map[string]any{"title": "durable session"}, &sess)
	if sess.ID == "" {
		t.Fatal("no session id")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newDurableServer(t, dataDir)
	defer s2.Close()
	// First repeated query after boot: served from the warmed cache.
	r, body := postQuery(t, ts2.URL, q)
	if got := r.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("first repeat after restart X-Cache = %q, want HIT (body %s)", got, body)
	}
	// The snapshot round trip loses nothing: the replay is the stream the
	// first server recorded.
	checkReplayOf(t, body1, r, body)
	// Every acknowledged RAG chunk is back and the registry rebuilt.
	if got := s2.docs.Count(); got != up.Chunks {
		t.Fatalf("recovered %d chunks, want %d", got, up.Chunks)
	}
	var docs []struct {
		ID     string `json:"id"`
		Name   string `json:"name"`
		Chunks int    `json:"chunks"`
	}
	doJSON(t, "GET", ts2.URL+"/api/documents", nil, &docs)
	if len(docs) != 1 || docs[0].ID != up.DocID || docs[0].Name != "facts.txt" || docs[0].Chunks != up.Chunks {
		t.Fatalf("document registry after restart: %+v", docs)
	}
	// Sessions survive too.
	if _, err := s2.sessions.Get(sess.ID); err != nil {
		t.Fatalf("session %s lost across restart: %v", sess.ID, err)
	}
	// A RAG-grounded query still works against recovered chunks.
	rr, body := postQuery(t, ts2.URL, map[string]any{
		"query": "Which city is the capital of France?", "use_rag": true,
	})
	if rr.StatusCode != 200 {
		t.Fatalf("RAG query after restart: %d %s", rr.StatusCode, body)
	}
}

// TestWarmStartRejectedAcrossSettingsChange pins the invalidation rule:
// a cache snapshot saved under one model set must not serve after a
// reboot with different settings. Settings are not persisted, so a server
// that changed them through PUT /api/settings reboots on the defaults.
func TestWarmStartRejectedAcrossSettingsChange(t *testing.T) {
	dataDir := t.TempDir()
	s1, ts1 := newDurableServer(t, dataDir)
	st := DefaultSettings()
	st.EnabledModels = st.EnabledModels[:2]
	if resp := doJSON(t, "PUT", ts1.URL+"/api/settings", st, nil); resp.StatusCode != 200 {
		t.Fatalf("put settings: %d", resp.StatusCode)
	}
	q := map[string]any{"query": "What is the capital of France?"}
	postQuery(t, ts1.URL, q)
	if got := s1.cache.Len(); got != 1 {
		t.Fatalf("cache holds %d entries before the restart, want 1", got)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := newDurableServer(t, dataDir)
	defer s2.Close()
	if got := s2.cache.Len(); got != 0 {
		t.Fatalf("cache warmed %d entries across a settings change, want 0", got)
	}
}

// TestTornSnapshotBootsCold: a qcache.json a crash left unparsable — and a
// state.json of an older version, which nothing reads any more — cost the
// boot a cold cache, never the boot itself, and the torn snapshot is gone.
func TestTornSnapshotBootsCold(t *testing.T) {
	dataDir := t.TempDir()
	for name, content := range map[string]string{qcacheFile: `{"fingerprint":"v3|oua`, "state.json": ``} {
		if err := os.WriteFile(filepath.Join(dataDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, ts := newDurableServer(t, dataDir)
	defer s.Close()
	if got := s.cache.Len(); got != 0 {
		t.Fatalf("booted with %d cache entries, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(dataDir, qcacheFile)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the torn snapshot survived the boot: %v", err)
	}
	if r, _ := postQuery(t, ts.URL, map[string]any{"query": "What is the capital of France?"}); r.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first query X-Cache = %q, want MISS", r.Header.Get("X-Cache"))
	}
}

// TestWarmStartIgnoresOlderSnapshotFormat: a qcache.json written before
// the entry held one rendered stream (fingerprint v1, one JSON payload per
// frame) is ignored whole — a cold start — and never half-read into an
// entry that replays an empty answer as a HIT.
func TestWarmStartIgnoresOlderSnapshotFormat(t *testing.T) {
	old := `{"frames":[{"Event":"start","Data":"eyJ0eXBlIjoic3RhcnQifQ=="}],` +
		`"result":{"strategy":"oua","answer":"Paris.","model":"llama3:8b","tokens_used":3,"rounds":1,"early_exit":false,"outcomes":[],"elapsed_ns":1}}`
	ws := qcache.WarmState{
		Fingerprint: "v1|oua|llama3:8b,mistral:7b,qwen2:7b|2048|0.7|0.3|3|rag0",
		Entries: []qcache.WarmEntry{{
			Query: qcache.Normalize("What is the capital of France?"), Scope: "oua|llama3:8b,mistral:7b,qwen2:7b|2048|0.7|0.3|-",
			Expires: time.Now().Add(time.Hour), Value: json.RawMessage(old),
		}},
	}
	dataDir := t.TempDir()
	if err := ws.WriteFile(filepath.Join(dataDir, qcacheFile)); err != nil {
		t.Fatal(err)
	}
	s, ts := newDurableServer(t, dataDir)
	defer s.Close()
	if got, want := strings.TrimPrefix(s.cacheFingerprint(), "v3"), strings.TrimSuffix(strings.TrimPrefix(ws.Fingerprint, "v1"), "|rag0"); got != want {
		t.Fatalf("the snapshot must differ from a current one in its version only: %q vs %q", got, want)
	}
	if got := s.cache.Len(); got != 0 {
		t.Fatalf("restored %d entries from an older-format snapshot, want 0", got)
	}
	if r, _ := postQuery(t, ts.URL, map[string]any{"query": "What is the capital of France?"}); r.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first query over an older-format snapshot X-Cache = %q, want MISS", r.Header.Get("X-Cache"))
	}

	// The decoder is the second line: an entry of another shape is not an
	// answer, whatever the file's fingerprint says.
	for _, raw := range []string{
		old,
		`{}`,
		`{"stream":"","frame_count":1,"result":{"model":"llama3:8b"}}`,
		`{"stream":"ZXZlbnQ6IHN0YXJ0Cg==","frame_count":1,"result":{"answer":"no model"}}`,
	} {
		if v, err := decodeCachedAnswer([]byte(raw)); err == nil {
			t.Fatalf("decoded %s into %+v, want it rejected", raw, v)
		}
	}
	ca := &cachedAnswer{stream: []byte("event: start\ndata: {}\n\n"), frames: 1, result: core.Result{Model: "llama3:8b", Answer: "Paris."}}
	raw, err := encodeCachedAnswer(ca)
	if err != nil {
		t.Fatal(err)
	}
	v, err := decodeCachedAnswer(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*cachedAnswer); !bytes.Equal(got.stream, ca.stream) || got.frames != 1 || got.result.Answer != "Paris." {
		t.Fatalf("round trip = %+v", got)
	}
}

// FuzzDecodeCachedAnswer: the warm-start entry decoder reads whatever the
// snapshot file holds without panicking, and an entry it accepts is an
// answer the cache can serve: encoded again and decoded, it is the same
// value, and its result's JSON is appendResultJSON's bytes for its result.
func FuzzDecodeCachedAnswer(f *testing.F) {
	res := core.Result{Strategy: core.StrategyOUA, Answer: "Paris.", Model: "llama3:8b", TokensUsed: 96, Rounds: 3,
		Outcomes: []core.ModelOutcome{{Model: "llama3:8b", Response: "Paris <b>&</b>", Tokens: 32, Score: 0.8, Pulls: 2, Done: true, DoneReason: "stop"},
			{Model: "qwen2:7b", Failed: true, Error: "daemon down", Pruned: true}}, Elapsed: 1234}
	for _, ca := range []*cachedAnswer{
		{stream: []byte("event: start\ndata: {}\n\n"), frames: 1, result: res},
		{stream: []byte("x"), frames: 7, result: core.Result{Model: "m", Outcomes: []core.ModelOutcome{}}},
	} {
		raw, err := encodeCachedAnswer(ca)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"stream":"eA==","frame_count":1,"result":{"model":"m","outcomes":null,"elapsed_ns":-1}}`))
	f.Add([]byte(`{"stream":"eA==","frame_count":1,"result":{"model":"m","outcomes":[{"score":1e400}]}}`))
	f.Add([]byte(`{"stream":"eA==","frame_count":1,"result":{"model":"\ud800","answer":"\u2028"}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		v, err := decodeCachedAnswer(raw)
		if err != nil {
			return
		}
		ca := v.(*cachedAnswer)
		if want, _ := appendResultJSON(nil, &ca.result); ca.resultJSON == nil || !bytes.Equal(ca.resultJSON, want) {
			t.Fatalf("accepted entry carries result JSON %q, want %q", ca.resultJSON, want)
		}
		again, err := encodeCachedAnswer(ca)
		if err != nil {
			t.Fatalf("accepted entry does not encode again: %v", err)
		}
		v2, err := decodeCachedAnswer(again)
		if err != nil {
			t.Fatalf("re-encoded entry %s is refused: %v", again, err)
		}
		if !reflect.DeepEqual(v2, v) {
			t.Fatalf("round trip changed the entry:\n%+v\n%+v", v2, v)
		}
	})
}

// TestCrashRestartKeepsAcknowledgedUploads simulates an unclean exit:
// no Close, so recovery runs purely from the WAL.
func TestCrashRestartKeepsAcknowledgedUploads(t *testing.T) {
	dataDir := t.TempDir()
	_, ts1 := newDurableServer(t, dataDir)
	var up struct {
		Chunks int `json:"chunks"`
	}
	doJSON(t, "POST", ts1.URL+"/api/upload", map[string]any{
		"filename": "notes.txt",
		"content":  "Lightning can strike the same place twice. Rayleigh scattering makes the sky blue.",
	}, &up)
	if up.Chunks == 0 {
		t.Fatal("upload produced no chunks")
	}
	// No Close: the first server just stops serving.
	s2, _ := newDurableServer(t, dataDir)
	defer s2.Close()
	if got := s2.docs.Count(); got != up.Chunks {
		t.Fatalf("recovered %d chunks after crash, want %d", got, up.Chunks)
	}
}

// TestCrashAfterUploadServesNoStaleWarmStart: a warm-start snapshot serves
// the one boot that reads it. After a crash that followed an upload, the
// WAL recovers the upload while the last clean snapshot's fingerprint
// revision still matches, so a snapshot left on disk would replay RAG
// answers the upload made stale.
func TestCrashAfterUploadServesNoStaleWarmStart(t *testing.T) {
	dataDir := t.TempDir()
	askRAG := map[string]any{"query": "What is the capital of France?", "use_rag": true}
	upload := func(url, content string) {
		t.Helper()
		if r := doJSON(t, "POST", url+"/api/upload", map[string]any{"filename": "facts.txt", "content": content}, nil); r.StatusCode != 201 {
			t.Fatalf("upload: status %d", r.StatusCode)
		}
	}
	s1, ts1 := newDurableServer(t, dataDir)
	upload(ts1.URL, "The capital of France is Paris.")
	if r, _ := postQuery(t, ts1.URL, askRAG); r.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first RAG query X-Cache = %q, want MISS", r.Header.Get("X-Cache"))
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newDurableServer(t, dataDir)
	if r, _ := postQuery(t, ts2.URL, askRAG); r.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("RAG query after a clean restart X-Cache = %q, want HIT", r.Header.Get("X-Cache"))
	}
	upload(ts2.URL, "Paris, on the Seine, is the capital and largest city of France.")
	// No Close: the second server crashes with the upload in its WAL only.

	s3, ts3 := newDurableServer(t, dataDir)
	defer s3.Close()
	if r, _ := postQuery(t, ts3.URL, askRAG); r.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("RAG query after a crash that followed an upload X-Cache = %q, want MISS", r.Header.Get("X-Cache"))
	}
}
