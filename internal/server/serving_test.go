package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"llmms/internal/core"
	"llmms/internal/llm"
	"llmms/internal/rag"
	"llmms/internal/session"
	"llmms/internal/truthfulqa"
	"llmms/internal/vectordb"
)

// newServingServer builds a test server with the serving layer on.
func newServingServer(t *testing.T, sv ServingOptions, backend core.Backend) (*Server, *httptest.Server) {
	t.Helper()
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	s, err := NewServer(Options{Engine: engine, Backend: backend, Serving: sv})
	if err != nil {
		t.Fatal(err)
	}
	watchResources(t, s)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// postQuery runs one /api/query and returns the response with its full
// body read (so SSE frames are complete).
func postQuery(t *testing.T, url string, body map[string]any) (*http.Response, string) {
	t.Helper()
	resp := doJSON(t, "POST", url+"/api/query", body, nil)
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// splitResult cuts a complete /api/query body into the orchestration
// stream and the ids of the result frame that ends it.
func splitResult(t *testing.T, body string) (stream, sessionID, queryID string) {
	t.Helper()
	i := strings.LastIndex(body, "event: result\ndata: ")
	if i < 0 {
		t.Fatalf("stream has no result frame:\n%s", body)
	}
	var res struct {
		SessionID string `json:"session_id"`
		QueryID   string `json:"query_id"`
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(body[i:], "event: result\ndata: ")), &res); err != nil {
		t.Fatal(err)
	}
	return body[:i], res.SessionID, res.QueryID
}

// checkReplayOf requires a replayed stream (cache hit or coalesced
// follower) to be its leader's byte for byte up to the result frame,
// which carries the requester's own ids, the ones in its headers.
func checkReplayOf(t *testing.T, leaderBody string, resp *http.Response, body string) {
	t.Helper()
	want, leaderSess, leaderQuery := splitResult(t, leaderBody)
	got, sess, query := splitResult(t, body)
	if got != want {
		t.Fatalf("%s stream differs from the leader's\n got %q\nwant %q", resp.Header.Get("X-Cache"), got, want)
	}
	if sess != resp.Header.Get("X-Session-ID") || query != resp.Header.Get("X-Query-ID") {
		t.Fatalf("result frame ids %q/%q, headers %q/%q", sess, query, resp.Header.Get("X-Session-ID"), resp.Header.Get("X-Query-ID"))
	}
	if sess == leaderSess || query == leaderQuery {
		t.Fatalf("result frame carries the leader's ids %q/%q", leaderSess, leaderQuery)
	}
}

// blockingBackend parks every GenerateChunk call until released, so
// tests can hold a query in flight deterministically.
type blockingBackend struct {
	inner   core.Backend
	once    sync.Once
	started chan struct{} // closed on the first call
	release chan struct{} // close to let all calls proceed
}

func newBlockingBackend(inner core.Backend) *blockingBackend {
	return &blockingBackend{inner: inner, started: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingBackend) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	b.once.Do(func() { close(b.started) })
	select {
	case <-b.release:
	case <-ctx.Done():
		return llm.Chunk{}, ctx.Err()
	}
	return b.inner.GenerateChunk(ctx, req)
}

func TestQueryCacheExactHit(t *testing.T) {
	s, ts := newServingServer(t, ServingOptions{CacheTTL: time.Minute}, nil)
	q := map[string]any{"query": "What is the capital of France?"}

	resp1, body1 := postQuery(t, ts.URL, q)
	if got := resp1.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first query X-Cache = %q, want MISS", got)
	}
	resp2, body2 := postQuery(t, ts.URL, q)
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("repeat query X-Cache = %q, want HIT", got)
	}
	if s.tel.CacheHits.Value("exact") != 1 {
		t.Fatalf("cache_hits{exact} = %v, want 1", s.tel.CacheHits.Value("exact"))
	}
	// The replay carries the same orchestration frames and a result with
	// the same answer (identities differ: fresh session and query IDs).
	f1, f2 := sseFrames(t, body1), sseFrames(t, body2)
	if len(f1) != len(f2) {
		t.Fatalf("frame counts differ: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i].Event != f2[i].Event {
			t.Fatalf("frame %d event %q vs %q", i, f1[i].Event, f2[i].Event)
		}
		if f1[i].Event != "result" && f1[i].Data != f2[i].Data {
			t.Fatalf("frame %d (%s) data differs", i, f1[i].Event)
		}
	}
	checkReplayOf(t, body1, resp2, body2)
	// A whitespace/case reformatting still hits the exact tier.
	resp3, _ := postQuery(t, ts.URL, map[string]any{"query": "  what is THE capital   of france? "})
	if got := resp3.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("normalized repeat X-Cache = %q, want HIT", got)
	}
}

func TestQueryCacheSemanticHit(t *testing.T) {
	// The hashing encoder's similarity between rephrasings is far below
	// the production 0.97 default, so the test lowers the bar — the point
	// is the tier's mechanics, not the encoder's quality.
	s, ts := newServingServer(t, ServingOptions{CacheTTL: time.Minute, SemanticThreshold: 0.3}, nil)
	_, leaderBody := postQuery(t, ts.URL, map[string]any{"query": "What is the capital of France?"})
	resp, body := postQuery(t, ts.URL, map[string]any{"query": "What is the capital city of France?"})
	if got := resp.Header.Get("X-Cache"); got != "SEMANTIC" {
		t.Fatalf("rephrased query X-Cache = %q, want SEMANTIC", got)
	}
	checkReplayOf(t, leaderBody, resp, body)
	if s.tel.CacheHits.Value("semantic") != 1 {
		t.Fatalf("cache_hits{semantic} = %v, want 1", s.tel.CacheHits.Value("semantic"))
	}
	frames := sseFrames(t, body)
	if len(frames) == 0 || frames[len(frames)-1].Event != "result" {
		t.Fatal("semantic replay did not end in a result frame")
	}
}

// TestCacheAdmissionsExported: llmms_cache_admissions_total counts, at
// scrape time, each new answer that met a full main region — with
// capacity 2, one window entry and one main, every distinct answer past
// the second — by whether the policy admitted it.
func TestCacheAdmissionsExported(t *testing.T) {
	s, ts := newServingServer(t, ServingOptions{CacheTTL: time.Minute, CacheCapacity: 2, SemanticThreshold: 2}, nil)
	scrape := func() (admitted, rejected float64) {
		t.Helper()
		if resp := doJSON(t, "GET", ts.URL+"/metrics", nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: %d", resp.StatusCode)
		}
		return s.tel.CacheAdmissions.Value("admitted"), s.tel.CacheAdmissions.Value("rejected")
	}
	for _, q := range []string{"What is the capital of France?", "Are bats blind?", "Why is the sky blue?", "Do goldfish remember?", "How do vaccines work?"} {
		postQuery(t, ts.URL, map[string]any{"query": q})
	}
	if a, r := scrape(); a+r != 3 {
		t.Fatalf("admissions: %v admitted + %v rejected, want 3 contests", a, r)
	}
	wantA, wantR := s.cache.Admissions()
	if a, r := scrape(); a != float64(wantA) || r != float64(wantR) {
		t.Fatalf("a second scrape reads (%v, %v), the cache (%d, %d)", a, r, wantA, wantR)
	}
}

func TestQueryCacheTTLExpiry(t *testing.T) {
	_, ts := newServingServer(t, ServingOptions{CacheTTL: 50 * time.Millisecond}, nil)
	q := map[string]any{"query": "What is the capital of France?"}
	postQuery(t, ts.URL, q)
	resp, _ := postQuery(t, ts.URL, q)
	if got := resp.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("within-TTL repeat X-Cache = %q, want HIT", got)
	}
	time.Sleep(80 * time.Millisecond)
	resp2, _ := postQuery(t, ts.URL, q)
	if got := resp2.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("post-TTL repeat X-Cache = %q, want MISS", got)
	}
}

func TestQueryCacheInvalidatedByUploadAndSettings(t *testing.T) {
	s, ts := newServingServer(t, ServingOptions{CacheTTL: time.Minute}, nil)
	upload := func(content string) string {
		t.Helper()
		var up struct {
			DocID string `json:"doc_id"`
		}
		if resp := doJSON(t, "POST", ts.URL+"/api/upload", map[string]any{"filename": "facts.txt", "content": content}, &up); resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload = %d", resp.StatusCode)
		}
		return up.DocID
	}
	remove := func(id string) {
		t.Helper()
		if resp := doJSON(t, "DELETE", ts.URL+"/api/documents/"+id, nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("delete = %d", resp.StatusCode)
		}
	}
	const question = "What is the capital of France?"
	retrieves := func(id string) bool {
		t.Helper()
		found, err := rag.Retrieve(s.docs, question, s.Settings().RAGTopK, "")
		if err != nil {
			t.Fatal(err)
		}
		return slices.ContainsFunc(found, func(r vectordb.Result) bool { return r.Metadata["doc_id"] == id })
	}
	first := upload("Paris is the capital of France.")
	upload("The capital city of France is Paris.")
	upload("France has Paris as its capital.")
	queries := []struct {
		name string
		body map[string]any
	}{
		{"grounded", map[string]any{"query": question, "use_rag": true}},
		{"filtered", map[string]any{"query": question, "use_rag": true, "doc_id": first}},
		{"plain", map[string]any{"query": question}},
	}
	expect := func(when string, want map[string]string) {
		t.Helper()
		for _, q := range queries {
			if resp, _ := postQuery(t, ts.URL, q.body); resp.Header.Get("X-Cache") != want[q.name] {
				t.Fatalf("%s: the %s answer is a %s, want %s", when, q.name, resp.Header.Get("X-Cache"), want[q.name])
			}
		}
	}
	expect("first ask", map[string]string{"grounded": "MISS", "filtered": "MISS", "plain": "MISS"})
	expect("repeat", map[string]string{"grounded": "HIT", "filtered": "HIT", "plain": "HIT"})

	// An upload no retrieval can reach drops nothing.
	unrelated := upload("Goldfish remember things for months.")
	if retrieves(unrelated) {
		t.Fatal("fixture: the unrelated document reaches the top k")
	}
	expect("after an unreachable upload", map[string]string{"grounded": "HIT", "filtered": "HIT", "plain": "HIT"})

	// One that enters the unfiltered top k drops that answer alone.
	related := upload("Paris, the capital of France, is in France.")
	if !retrieves(related) {
		t.Fatal("fixture: the related document misses the top k")
	}
	expect("after a reachable upload", map[string]string{"grounded": "MISS", "filtered": "HIT", "plain": "HIT"})

	// A delete drops the answers that retrieved the document, and no other.
	remove(unrelated)
	expect("after deleting a document nothing retrieved", map[string]string{"grounded": "HIT", "filtered": "HIT", "plain": "HIT"})
	remove(related)
	expect("after deleting a retrieved document", map[string]string{"grounded": "MISS", "filtered": "HIT", "plain": "HIT"})

	// A settings change flushes everything.
	st := s.Settings()
	st.MaxTokens = 1024
	if resp := doJSON(t, "PUT", ts.URL+"/api/settings", st, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("settings update = %d", resp.StatusCode)
	}
	expect("after a settings change", map[string]string{"grounded": "MISS", "filtered": "MISS", "plain": "MISS"})
	if s.tel.CacheDropped.Value("upload") != 1 || s.tel.CacheDropped.Value("delete") != 1 || s.tel.CacheDropped.Value("settings") != 3 {
		t.Fatalf("invalidations upload %v, delete %v, settings %v; want 1, 1, 3",
			s.tel.CacheDropped.Value("upload"), s.tel.CacheDropped.Value("delete"), s.tel.CacheDropped.Value("settings"))
	}
}

func TestQueryContextBypassesCache(t *testing.T) {
	s, ts := newServingServer(t, ServingOptions{CacheTTL: time.Minute}, nil)

	// Ephemeral context makes the prompt request-specific: repeats must
	// never hit (or populate) the cache.
	qe := map[string]any{
		"query":             "What is the capital of France?",
		"ephemeral_context": "France moved its capital to Lyon in this alternate history.",
	}
	postQuery(t, ts.URL, qe)
	resp, _ := postQuery(t, ts.URL, qe)
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("ephemeral repeat X-Cache = %q, want MISS (bypass)", got)
	}

	// A session whose history has been folded into a summary also feeds
	// the prompt, so those queries bypass too.
	sessID := s.sessions.Create("long chat").ID
	for i := 0; i < 12; i++ {
		if _, err := s.sessions.Append(sessID, session.Message{Role: session.RoleUser, Content: "turn content"}); err != nil {
			t.Fatal(err)
		}
	}
	if summary, _, _ := s.sessions.Context(sessID, 0); summary == "" {
		t.Skip("session store did not summarize; bypass branch unreachable")
	}
	qs := map[string]any{"query": "What is the capital of France?", "session_id": sessID}
	postQuery(t, ts.URL, qs)
	resp2, _ := postQuery(t, ts.URL, qs)
	if got := resp2.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("summarized-session repeat X-Cache = %q, want MISS (bypass)", got)
	}
}

func TestQueryCoalescedFollowerReplay(t *testing.T) {
	backend := newBlockingBackend(llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())}))
	s, ts := newServingServer(t, ServingOptions{Coalesce: true}, backend)
	q := map[string]any{"query": "What is the capital of France?"}

	type outcome struct {
		resp *http.Response
		body string
	}
	leader := make(chan outcome, 1)
	go func() {
		resp, body := postQuery(t, ts.URL, q)
		leader <- outcome{resp, body}
	}()
	<-backend.started // the leader is inside orchestration, held open

	follower := make(chan outcome, 1)
	go func() {
		resp, body := postQuery(t, ts.URL, q)
		follower <- outcome{resp, body}
	}()
	// Wait until the second request has actually joined the flight, then
	// let the leader finish.
	deadline := time.Now().Add(5 * time.Second)
	for s.tel.Coalesced.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(backend.release)

	lo, fo := <-leader, <-follower
	if got := lo.resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("leader X-Cache = %q, want MISS", got)
	}
	if got := fo.resp.Header.Get("X-Cache"); got != "COALESCED" {
		t.Fatalf("follower X-Cache = %q, want COALESCED", got)
	}
	// The acceptance bar: the follower's stream is event-for-event
	// identical to the leader's — orchestration frames byte-for-byte,
	// the result frame rebuilt with the follower's own identity.
	lf, ff := sseFrames(t, lo.body), sseFrames(t, fo.body)
	if len(lf) != len(ff) {
		t.Fatalf("frame counts differ: leader %d vs follower %d", len(lf), len(ff))
	}
	for i := range lf {
		if lf[i].Event != ff[i].Event {
			t.Fatalf("frame %d event %q vs %q", i, lf[i].Event, ff[i].Event)
		}
		if lf[i].Event != "result" && lf[i].Data != ff[i].Data {
			t.Fatalf("frame %d (%s) data differs:\nleader:   %s\nfollower: %s", i, lf[i].Event, lf[i].Data, ff[i].Data)
		}
	}
	if len(lf) == 0 || lf[len(lf)-1].Event != "result" {
		t.Fatal("leader stream has no result frame")
	}
	// The follower's result frame must carry the follower's own session,
	// not the leader's — otherwise two distinct clients end up appending
	// to one session.
	var lres, fres struct {
		SessionID string          `json:"session_id"`
		Result    json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(lf[len(lf)-1].Data), &lres); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(ff[len(ff)-1].Data), &fres); err != nil {
		t.Fatal(err)
	}
	if fres.SessionID == lres.SessionID {
		t.Fatalf("follower result carries the leader's session %q", lres.SessionID)
	}
	if got := fo.resp.Header.Get("X-Session-ID"); fres.SessionID != got {
		t.Fatalf("follower result session %q != its X-Session-ID header %q", fres.SessionID, got)
	}
	if !bytes.Equal(lres.Result, fres.Result) {
		t.Fatal("follower result payload differs from the leader's")
	}
	checkReplayOf(t, lo.body, fo.resp, fo.body)
}

// TestQueryLeaderDisconnectKeepsFollower covers the fault-tolerance half
// of coalescing: the leader's client hanging up mid-orchestration must
// not fail the followers drafting behind it — the orchestration runs to
// completion for them.
func TestQueryLeaderDisconnectKeepsFollower(t *testing.T) {
	backend := newBlockingBackend(llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())}))
	s, ts := newServingServer(t, ServingOptions{Coalesce: true}, backend)
	body := `{"query":"What is the capital of France?"}`

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, err := http.NewRequestWithContext(leaderCtx, "POST", ts.URL+"/api/query", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return // canceled mid-stream, as intended
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	<-backend.started

	follower := make(chan outcomePair, 1)
	go func() {
		resp, fbody := postQuery(t, ts.URL, map[string]any{"query": "What is the capital of France?"})
		follower <- outcomePair{resp, fbody}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.tel.Coalesced.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced")
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the leader's client while the orchestration is parked, give
	// the server a beat to observe the disconnect, then let it finish.
	cancelLeader()
	<-leaderDone
	time.Sleep(50 * time.Millisecond)
	close(backend.release)

	fo := <-follower
	if fo.resp.StatusCode != http.StatusOK {
		t.Fatalf("follower status = %d, want 200", fo.resp.StatusCode)
	}
	frames := sseFrames(t, fo.body)
	if len(frames) == 0 || frames[len(frames)-1].Event != "result" {
		t.Fatalf("follower of a disconnected leader got no result; events: %v", frames)
	}
	for _, fr := range frames {
		if fr.Event == "error" {
			t.Fatalf("follower inherited the dead leader's error: %s", fr.Data)
		}
	}
}

// TestQueryQueuedLeaderCanceledShedsFollowersRetryably covers the gate/
// coalescing seam: a leader canceled while parked in the admission queue
// never produced an answer, so its followers are released with the
// retryable overloaded envelope, not a query failure.
func TestQueryQueuedLeaderCanceledShedsFollowersRetryably(t *testing.T) {
	backend := newBlockingBackend(llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())}))
	s, ts := newServingServer(t, ServingOptions{Coalesce: true, MaxInflight: 1}, backend)

	first := make(chan outcomePair, 1)
	go func() {
		resp, body := postQuery(t, ts.URL, map[string]any{"query": "first long question"})
		first <- outcomePair{resp, body}
	}()
	<-backend.started // query 1 holds the only slot

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, err := http.NewRequestWithContext(leaderCtx, "POST", ts.URL+"/api/query",
			strings.NewReader(`{"query":"second long question"}`))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.QueueDepth() != 1 { // query 2's leader parked in the wait queue
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	follower := make(chan outcomePair, 1)
	go func() {
		resp, body := postQuery(t, ts.URL, map[string]any{"query": "second long question"})
		follower <- outcomePair{resp, body}
	}()
	for s.tel.Coalesced.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("duplicate request never coalesced")
		}
		time.Sleep(time.Millisecond)
	}

	cancelLeader()
	<-leaderDone

	fo := <-follower
	if fo.resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower status = %d, want 503", fo.resp.StatusCode)
	}
	if fo.resp.Header.Get("Retry-After") == "" {
		t.Fatal("queued-leader-canceled follower got no Retry-After hint")
	}
	var envelope map[string]apiError
	if err := json.Unmarshal([]byte(fo.body), &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope["error"].Code != "overloaded" {
		t.Fatalf("follower error code = %q, want overloaded", envelope["error"].Code)
	}

	close(backend.release)
	if out := <-first; out.resp.StatusCode != http.StatusOK {
		t.Fatalf("first query status = %d, want 200", out.resp.StatusCode)
	}
}

func TestQueryAdmissionSheds429(t *testing.T) {
	backend := newBlockingBackend(llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())}))
	s, ts := newServingServer(t, ServingOptions{MaxInflight: 1}, backend)

	running := make(chan outcomePair, 3)
	go func() {
		resp, body := postQuery(t, ts.URL, map[string]any{"query": "first long question"})
		running <- outcomePair{resp, body}
	}()
	<-backend.started // query 1 holds the only slot

	for _, q := range []string{"second long question", "third long question"} {
		go func() {
			resp, body := postQuery(t, ts.URL, map[string]any{"query": q})
			running <- outcomePair{resp, body}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.QueueDepth() != 2 { // queries 2 and 3 parked in the wait queue of 2×MaxInflight
		if time.Now().After(deadline) {
			t.Fatal("the queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: query 4 is shed with 429 + Retry-After in the envelope.
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	resp := doJSON(t, "POST", ts.URL+"/api/query", map[string]any{"query": "fourth long question"}, &envelope)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated query status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if envelope.Error.Code != "overloaded" {
		t.Fatalf("429 code = %q, want overloaded", envelope.Error.Code)
	}
	if s.tel.Rejected.Value() != 1 {
		t.Fatalf("admission_rejected_total = %v, want 1", s.tel.Rejected.Value())
	}

	close(backend.release)
	for i := 0; i < 3; i++ {
		out := <-running
		if out.resp.StatusCode != http.StatusOK {
			t.Fatalf("admitted query %d status = %d, want 200", i, out.resp.StatusCode)
		}
		if !strings.Contains(out.body, "event: result") {
			t.Fatalf("admitted query %d stream has no result frame", i)
		}
	}
}

type outcomePair struct {
	resp *http.Response
	body string
}

func TestQueryBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t)
	big := strings.Repeat("x", maxJSONBody+1)
	resp, err := http.Post(ts.URL+"/api/query", "application/json",
		strings.NewReader(`{"query":"`+big+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
	var envelope map[string]apiError
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope["error"].Code != "request_too_large" {
		t.Fatalf("413 code = %q, want request_too_large", envelope["error"].Code)
	}
}

// TestJSONBodiesAreCapped: every route that decodes a JSON body reads at
// most maxJSONBody bytes of it and answers a larger one with 413.
func TestJSONBodiesAreCapped(t *testing.T) {
	s, _ := newTestServer(t)
	pad := strings.Repeat("x", 2<<20)
	for _, tc := range []struct{ Name, Method, Path, Body string }{
		{"sessions", "POST", "/api/sessions", `{"title":"` + pad + `"}`},
		{"settings", "PUT", "/api/settings", `{"strategy":"` + pad + `"}`},
		{"configure", "POST", "/api/configure", `{"instruction":"` + pad + `"}`},
		{"feedback", "POST", "/api/feedback", `{"model":"` + pad + `","rating":1}`},
		{"query", "POST", "/api/query", `{"query":"` + pad + `"}`},
	} {
		t.Run(tc.Name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(tc.Method, tc.Path, strings.NewReader(tc.Body)))
			var envelope map[string]apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &envelope); rec.Code != http.StatusRequestEntityTooLarge ||
				err != nil || envelope["error"].Code != "request_too_large" {
				t.Fatalf("%s %s with a 2 MiB body = %d (code %q), want 413 request_too_large", tc.Method, tc.Path, rec.Code, envelope["error"].Code)
			}
		})
	}
	if n := s.Sessions().Len(); n != 0 {
		t.Fatalf("refused bodies left %d sessions", n)
	}
}

// deadWriter accepts headers but fails every body write, simulating a
// client that disconnected before the stream started.
type deadWriter struct {
	header http.Header
}

func (w *deadWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}
func (w *deadWriter) WriteHeader(int)           {}
func (w *deadWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

func TestQuerySSEWriteErrorStopsStream(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	s, err := NewServer(Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/api/query",
		strings.NewReader(`{"query":"What is the capital of France?"}`))
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(&deadWriter{}, req)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler kept streaming to a dead client")
	}
	if got := s.tel.SSEEncodeErrors.Value(); got < 1 {
		t.Fatalf("sse_encode_errors_total = %v, want >= 1", got)
	}
	// Exactly one failed frame: the stream was abandoned at the first
	// write error instead of burning through the rest of the events.
	if got := s.tel.SSEFrames.Value(); got != 0 {
		t.Fatalf("sse_frames_written_total = %v, want 0 on a dead client", got)
	}
}

// stallWriter is a follower's connection that takes its first write and
// then holds it until released, parking the follower mid-replay.
type stallWriter struct {
	header  http.Header
	body    bytes.Buffer
	once    sync.Once
	stalled chan struct{} // closed on the first write
	release chan struct{} // close to let writes through
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.stalled) })
	<-w.release
	return w.body.Write(p)
}

// TestFlightFollowerOutlivesLeaderWriter: a flight publishes frames out of
// its leader's writer buffer without copying them. A follower parked
// mid-replay until after its leader has finished — while a hundred other
// queries take writers from the pool — still gets the leader's stream
// byte for byte, because a writer whose flight had followers is never
// reused.
func TestFlightFollowerOutlivesLeaderWriter(t *testing.T) {
	backend := newBlockingBackend(llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())}))
	s, ts := newServingServer(t, ServingOptions{Coalesce: true}, backend)
	q := map[string]any{"query": "What is the capital of France?"}

	leader := make(chan outcomePair, 1)
	go func() {
		resp, body := postQuery(t, ts.URL, q)
		leader <- outcomePair{resp, body}
	}()
	<-backend.started // the leader has published its start frame and waits

	fw := &stallWriter{header: http.Header{}, stalled: make(chan struct{}), release: make(chan struct{})}
	followed := make(chan struct{})
	go func() {
		defer close(followed)
		req := httptest.NewRequest("POST", "/api/query", strings.NewReader(`{"query":"What is the capital of France?"}`))
		req.Header.Set("Content-Type", "application/json")
		s.ServeHTTP(fw, req)
	}()
	select {
	case <-fw.stalled: // caught up with the leader, flushing, parked
	case <-time.After(5 * time.Second):
		t.Fatal("the follower never wrote")
	}

	close(backend.release)
	lo := <-leader
	for i := 0; i < 100; i++ {
		if resp, _ := postQuery(t, ts.URL, map[string]any{"query": fmt.Sprintf("Unrelated question number %d?", i)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}
	close(fw.release)
	<-followed

	if got := fw.header.Get("X-Cache"); got != "COALESCED" {
		t.Fatalf("follower X-Cache = %q, want COALESCED", got)
	}
	checkReplayOf(t, lo.body, &http.Response{Header: fw.header}, fw.body.String())
}
