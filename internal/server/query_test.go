package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"llmms/internal/llm"
	"llmms/internal/qcache"
	"llmms/internal/truthfulqa"
)

// watchResources turns a server test into an exit-path test: when the
// test ends — after the httptest server, registered later, has waited out
// its handlers — nothing a query takes may still be held. The test
// constructors call it before they start anything.
func watchResources(t *testing.T, s *Server) {
	t.Helper()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for held := heldResources(s); held != ""; held = heldResources(s) {
			if time.Now().After(deadline) {
				t.Errorf("the query path still holds: %s", held)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// heldResources names what the query path has not returned: gate weight,
// queue slots, generation streams, open flights.
func heldResources(s *Server) string {
	var held []string
	if n := s.gate.InUse(); n != 0 {
		held = append(held, fmt.Sprintf("gate weight %d", n))
	}
	if n := s.gate.QueueDepth(); n != 0 {
		held = append(held, fmt.Sprintf("%d queued", n))
	}
	if n := s.engine.OpenStreams(); n != 0 {
		held = append(held, fmt.Sprintf("%d generation streams", n))
	}
	if s.flights != nil {
		// A Group does not count its flights for anyone; a leader that never
		// finished is still in its map.
		if n := reflect.ValueOf(s.flights).Elem().FieldByName("flights").Len(); n != 0 {
			held = append(held, fmt.Sprintf("%d unfinished flights", n))
		}
	}
	return strings.Join(held, ", ")
}

// TestQueryShedLeavesNoSession: a request that is never answered with a
// stream was never told a session id, so it must not leave a session —
// at the store's cap every such session evicts a live conversation.
func TestQueryShedLeavesNoSession(t *testing.T) {
	backend := newBlockingBackend(llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())}))
	s, ts := newServingServer(t, ServingOptions{MaxInflight: 1}, backend)
	release := sync.OnceFunc(func() { close(backend.release) })
	defer release() // a failed assertion must not leave the admitted queries parked
	live := s.Sessions().Create("a live conversation").ID

	admitted := make(chan outcomePair, 3)
	ask := func(question string) {
		resp, body := postQuery(t, ts.URL, map[string]any{"query": question})
		admitted <- outcomePair{resp, body}
	}
	go ask("first long question")
	<-backend.started // holds the only slot
	go ask("second long question")
	go ask("third long question")
	eventually(t, "the queue to fill", func() bool { return s.gate.QueueDepth() == 2 })

	before := s.Sessions().Len()
	for i := 0; i < 300; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/query", strings.NewReader(`{"query":"one more question"}`)))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 429", i, rec.Code)
		}
	}
	if got := s.Sessions().Len(); got != before {
		t.Fatalf("300 shed requests took the session count %d -> %d", before, got)
	}
	if _, err := s.Sessions().Get(live); err != nil {
		t.Fatalf("the live session was evicted by shed requests: %v", err)
	}
	release()
	for i := 0; i < 3; i++ {
		if out := <-admitted; out.resp.StatusCode != http.StatusOK {
			t.Fatalf("admitted query status = %d, want 200", out.resp.StatusCode)
		}
	}
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// exitServing is the serving layer every exit case runs behind: all of it
// on, one slot, two queue places.
var exitServing = ServingOptions{CacheTTL: time.Minute, SemanticThreshold: 0.3, Coalesce: true, MaxInflight: 1}

const (
	askFrance = `{"query":"What is the capital of France?","max_tokens":96}`
	askJapan  = `{"query":"What is the capital of Japan?","max_tokens":96}`
	askEgypt  = `{"query":"What is the capital of Egypt?","max_tokens":96}`
	askKenya  = `{"query":"What is the capital of Kenya?","max_tokens":96}`
)

// exitEnv is the server an exit case runs against: generation is held at
// a gate until the case opens it, and requests started on the side are
// waited for before the resources are checked.
type exitEnv struct {
	t      *testing.T
	s      *Server
	g      *gatedBackend
	side   sync.WaitGroup
	hangUp context.CancelFunc // hangs up on the request under test
	shed   context.CancelFunc // hangs up on the leader Arrange queued
}

// serve runs one request in-process; a canceled ctx is a client that left.
func (e *exitEnv) serve(ctx context.Context, w http.ResponseWriter, body string) {
	req := httptest.NewRequest("POST", "/api/query", strings.NewReader(body)).WithContext(ctx)
	e.s.ServeHTTP(w, req)
}

// aside starts a request that is not the one under test.
func (e *exitEnv) aside(ctx context.Context, body string) {
	e.side.Add(1)
	go func() {
		defer e.side.Done()
		e.serve(ctx, httptest.NewRecorder(), body)
	}()
}

// holdSlot parks a query inside generation, holding the gate's only slot.
func (e *exitEnv) holdSlot() {
	e.aside(context.Background(), askJapan)
	e.g.awaitCalls(e.t, 1)
}

// awaitQueued waits for n requests to queue at the gate.
func (e *exitEnv) awaitQueued(n int) {
	eventually(e.t, "requests to queue at the gate", func() bool { return e.s.gate.QueueDepth() == n })
}

func (e *exitEnv) awaitFollower() {
	eventually(e.t, "the request to join a flight", func() bool { return e.s.tel.Coalesced.Value() >= 1 })
}

// enable opens the gate over a model pool no settings update would accept.
func (e *exitEnv) enable(models ...string) {
	e.g.open()
	e.s.mu.Lock()
	e.s.settings.EnabledModels = models
	e.s.mu.Unlock()
}

// prime answers a question once so the next one can be served from cache.
func (e *exitEnv) prime(body string) {
	e.g.open()
	e.serve(context.Background(), httptest.NewRecorder(), body)
}

// exitCase is one way an /api/query request ends.
type exitCase struct {
	Name string
	Body string
	// Arrange puts the server where the exit is reachable; without one the
	// gate is simply open. During runs while the request is in flight and
	// must let it finish.
	Arrange func(e *exitEnv)
	During  func(e *exitEnv)
	// Dead answers through a connection that refuses every write.
	Dead bool
	// Blank runs the request with its question emptied once resolve has
	// accepted it (serveBlanked): the only way into the two retrieval
	// failures.
	Blank  bool
	Expect exitExpect
}

type exitExpect struct {
	Status     int    // 0: nothing was written to the client
	Code       string // the error envelope's code, in a JSON body or an error frame
	XCache     string
	RetryAfter bool
	Terminal   string // an opened stream's one terminal frame: "result" or "error"
	Sessions   int    // sessions the request added...
	Messages   int    // ...and the messages in the one it added
	Trace      string // the stored trace's outcome; "" for an exit that stores none
}

// serveBlanked is handleQuery with the question emptied before retrieval.
// rag.Retrieve fails only on an empty question or a filter that does not
// compile; resolve rejects the first and the filter is one string
// equality, so no request reaches retrieval_failed or ephemeral_context —
// the steps, being plain methods, can still be walked there.
func serveBlanked(s *Server, w http.ResponseWriter, r *http.Request) {
	q := query{w: w, r: r}
	defer s.finish(&q)
	if !s.resolve(&q) {
		return
	}
	s.begin(&q)
	if s.fromCache(&q) || s.fromFlight(&q) {
		return
	}
	s.route(&q)
	if !s.admit(&q) {
		return
	}
	q.req.Query = ""
	if prompt, ok := s.retrieve(&q); ok {
		s.orchestrate(&q, prompt)
	}
}

// servingKeyOf is the key handleQuery would serve body under.
func servingKeyOf(s *Server, body string) (qcache.Key, bool) {
	q := query{w: httptest.NewRecorder(), r: httptest.NewRequest("POST", "/api/query", strings.NewReader(body))}
	if !s.resolve(&q) {
		return qcache.Key{}, false
	}
	return s.servingKey(&q)
}

func runExit(t *testing.T, tc exitCase) {
	s, _, g := newGatedServer(t, exitServing)
	e := &exitEnv{t: t, s: s, g: g}
	if tc.Arrange != nil {
		tc.Arrange(e)
	} else {
		g.open()
	}
	sessions := s.Sessions().Len()

	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	e.hangUp = hangUp
	rec := httptest.NewRecorder()
	var w http.ResponseWriter = rec
	if tc.Dead {
		w = &deadWriter{}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if tc.Blank {
			serveBlanked(s, w, httptest.NewRequest("POST", "/api/query", strings.NewReader(tc.Body)).WithContext(ctx))
		} else {
			e.serve(ctx, w, tc.Body)
		}
	}()
	if tc.During != nil {
		tc.During(e)
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("the request never returned")
	}

	// What the client saw.
	want, header := tc.Expect, w.Header()
	body := rec.Body.String()
	switch {
	case tc.Dead:
	case want.Status == 0:
		if rec.Flushed || body != "" || header.Get("Content-Type") != "" {
			t.Fatalf("wrote to a client that had left: %q, headers %v", body, header)
		}
	case rec.Code != want.Status:
		t.Fatalf("status = %d, want %d; body %s", rec.Code, want.Status, body)
	}
	if got := header.Get("X-Cache"); got != want.XCache {
		t.Fatalf("X-Cache = %q, want %q", got, want.XCache)
	}
	if got := header.Get("Retry-After") != ""; got != want.RetryAfter {
		t.Fatalf("Retry-After present = %v, want %v", got, want.RetryAfter)
	}
	envelope := body
	if want.Terminal != "" && !tc.Dead {
		frames := sseFrames(t, body)
		terminal := 0
		for _, f := range frames {
			if f.Event == "result" || f.Event == "error" {
				terminal++
			}
		}
		if last := frames[len(frames)-1]; terminal != 1 || last.Event != want.Terminal {
			t.Fatalf("%d terminal frames, last %q; want exactly one %q", terminal, last.Event, want.Terminal)
		} else {
			envelope = last.Data
		}
	}
	if want.Code != "" {
		var env map[string]apiError
		if err := json.Unmarshal([]byte(envelope), &env); err != nil || env["error"].Code != want.Code {
			t.Fatalf("error code = %q (%v), want %q; from %s", env["error"].Code, err, want.Code, envelope)
		}
	}

	// What it left behind.
	if got := s.Sessions().Len() - sessions; got != want.Sessions {
		t.Fatalf("the request added %d sessions, want %d", got, want.Sessions)
	}
	if want.Sessions == 1 {
		sess, err := s.Sessions().Get(header.Get("X-Session-ID"))
		if err != nil || len(sess.Messages) != want.Messages {
			t.Fatalf("session %q: %d messages (%v), want %d", header.Get("X-Session-ID"), len(sess.Messages), err, want.Messages)
		}
	}
	// A stored trace reads back the spans that ended: the root must be
	// among them, once.
	tr, stored := s.tel.Traces.Get(header.Get("X-Query-ID"))
	roots := 0
	for _, sp := range tr.Spans {
		if sp.Name == "query" && sp.ParentID == "" {
			roots++
		}
	}
	if stored != (want.Trace != "") || tr.Outcome != want.Trace || stored && roots != 1 {
		t.Fatalf("trace stored = %v, outcome %q, %d ended roots; want outcome %q", stored, tr.Outcome, roots, want.Trace)
	}

	// What it still holds, once everything started on the side is done.
	g.open()
	e.side.Wait()
	eventually(t, "the query path to return what it took", func() bool { return heldResources(s) == "" })
	if key, ok := servingKeyOf(s, tc.Body); ok {
		f, role := s.flights.Join(key.ID())
		if role != qcache.RoleLeader {
			t.Fatalf("a fresh join of the request's key has role %v, want leader: its flight was never finished", role)
		}
		f.Finish(nil)
	}
}

func TestQueryEveryExit(t *testing.T) {
	failed := func(code string, trace string) exitExpect {
		return exitExpect{Status: 200, XCache: "MISS", Terminal: "error", Code: code, Sessions: 1, Trace: trace}
	}
	replayed := func(xcache string) exitExpect {
		return exitExpect{Status: 200, XCache: xcache, Terminal: "result", Sessions: 1, Messages: 2}
	}
	cases := []exitCase{
		{Name: "invalid_json", Body: `{"query":`, Expect: exitExpect{Status: 400, Code: "invalid_json"}},
		{Name: "request_too_large", Body: `{"query":"` + strings.Repeat("x", maxJSONBody) + `"}`,
			Expect: exitExpect{Status: 413, Code: "request_too_large"}},
		{Name: "missing_field", Body: `{"query":"  "}`, Expect: exitExpect{Status: 400, Code: "missing_field"}},
		{Name: "invalid_strategy", Body: `{"query":"q","strategy":"bogus"}`, Expect: exitExpect{Status: 400, Code: "invalid_strategy"}},
		{Name: "invalid_max_tokens", Body: `{"query":"q","max_tokens":-1}`, Expect: exitExpect{Status: 400, Code: "invalid_max_tokens"}},
		{Name: "unknown_session", Body: `{"query":"q","session_id":"nope"}`, Expect: exitExpect{Status: 404, Code: "unknown_session"}},
		{Name: "HIT", Body: askFrance, Arrange: func(e *exitEnv) { e.prime(askFrance) }, Expect: replayed("HIT")},
		{Name: "SEMANTIC", Body: `{"query":"What is the capital city of France?","max_tokens":96}`,
			Arrange: func(e *exitEnv) { e.prime(askFrance) }, Expect: replayed("SEMANTIC")},
		{Name: "COALESCED", Body: askFrance,
			Arrange: func(e *exitEnv) {
				e.aside(context.Background(), askFrance)
				e.g.awaitCalls(e.t, 1)
			},
			During: func(e *exitEnv) {
				e.awaitFollower()
				e.g.open()
			},
			Expect: replayed("COALESCED")},
		{Name: "COALESCED behind a shed leader", Body: askFrance,
			Arrange: func(e *exitEnv) {
				e.holdSlot()
				var leader context.Context
				leader, e.shed = context.WithCancel(context.Background())
				e.aside(leader, askFrance)
				e.awaitQueued(1)
			},
			During: func(e *exitEnv) {
				e.awaitFollower()
				e.shed()
			},
			Expect: exitExpect{Status: 503, Code: "overloaded", RetryAfter: true}},
		{Name: "429", Body: askFrance,
			Arrange: func(e *exitEnv) {
				e.holdSlot()
				e.aside(context.Background(), askEgypt)
				e.aside(context.Background(), askKenya)
				e.awaitQueued(2)
			},
			Expect: exitExpect{Status: 429, Code: "overloaded", RetryAfter: true}},
		{Name: "canceled while queued", Body: askFrance,
			Arrange: func(e *exitEnv) { e.holdSlot() },
			During: func(e *exitEnv) {
				e.awaitQueued(1)
				e.hangUp()
			},
			Expect: exitExpect{}}, // nothing is written, nothing is left
		{Name: "retrieval_failed", Body: `{"query":"What is the capital of France?","use_rag":true}`, Blank: true,
			Arrange: func(e *exitEnv) {
				e.g.open()
				up := httptest.NewRequest("POST", "/api/upload", strings.NewReader(`{"filename":"facts.txt","content":"Paris is the capital of France."}`))
				e.s.ServeHTTP(httptest.NewRecorder(), up)
			},
			Expect: exitExpect{Status: 500, Code: "retrieval_failed"}},
		{Name: "ephemeral_context", Body: `{"query":"What is the capital of France?","ephemeral_context":"Lyon is the capital."}`, Blank: true,
			Expect: exitExpect{Status: 422, Code: "ephemeral_context"}},
		{Name: "invalid_config", Body: askFrance,
			Arrange: func(e *exitEnv) { e.enable(llm.ModelLlama3, llm.ModelLlama3) },
			Expect:  failed("invalid_config", "error")},
		{Name: "all_models_failed", Body: askFrance,
			Arrange: func(e *exitEnv) { e.enable("ghost:1b", "ghost:2b") },
			Expect:  failed("all_models_failed", "all_models_failed")},
		{Name: "unknown_model", Body: `{"query":"q","strategy":"single","model":"ghost:1b"}`,
			Expect: exitExpect{Status: 422, Code: "unknown_model"}},
		{Name: "query_failed", Body: `{"query":"q","strategy":"single"}`,
			Arrange: func(e *exitEnv) {
				e.g.broken = errors.New("daemon down")
				e.g.open()
			},
			Expect: failed("query_failed", "error")},
		{Name: "client gone mid-stream", Body: askFrance, Dead: true,
			Expect: exitExpect{XCache: "MISS", Sessions: 1, Trace: "canceled"}},
		{Name: "ok", Body: askFrance,
			Expect: exitExpect{Status: 200, XCache: "MISS", Terminal: "result", Sessions: 1, Messages: 2, Trace: "ok"}},
	}
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) { runExit(t, tc) })
	}
}
