package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llmms/internal/core"
	"llmms/internal/llm"
	"llmms/internal/llm/llmtest"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
)

// gatedBackend holds every generation call — a per-round GenerateChunk or
// a drain of a persistent stream — until the test hands it a permit, so
// a test can stop an orchestration exactly where it waits for tokens.
type gatedBackend struct {
	inner   *llm.Engine
	arrived chan struct{} // one send per call, before it blocks
	permits chan struct{} // one receive per call; open closes it
	opened  sync.Once
	calls   atomic.Int64
	broken  error // when set before a query, every call fails with it at once
}

// open lets every call through from now on.
func (g *gatedBackend) open() { g.opened.Do(func() { close(g.permits) }) }

// newGatedServer builds a test server over a closed gate. The gate opens
// when the test ends, before the server's own cleanup waits for its
// handlers, so a failed assertion does not leave one blocked behind it.
func newGatedServer(t *testing.T, sv ServingOptions) (*Server, *httptest.Server, *gatedBackend) {
	t.Helper()
	g := &gatedBackend{
		inner: llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())}),
		// Roomier than any query here makes calls, so a call never blocks
		// on announcing itself.
		arrived: make(chan struct{}, 1024),
		permits: make(chan struct{}),
	}
	s, ts := newServingServer(t, sv, g)
	t.Cleanup(g.open)
	return s, ts, g
}

func (g *gatedBackend) hold(ctx context.Context) error {
	if g.broken != nil {
		return g.broken
	}
	g.calls.Add(1)
	g.arrived <- struct{}{}
	select {
	case <-g.permits:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gatedBackend) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	if err := g.hold(ctx); err != nil {
		return llm.Chunk{}, err
	}
	return g.inner.GenerateChunk(ctx, req)
}

func (g *gatedBackend) OpenStream(ctx context.Context, req llm.ChunkRequest) (llm.ChunkStream, error) {
	st, err := g.inner.OpenStream(ctx, req)
	if err != nil {
		return nil, err
	}
	return &gatedStream{ChunkStream: st, g: g}, nil
}

type gatedStream struct {
	llm.ChunkStream
	g *gatedBackend
}

func (s *gatedStream) Next(ctx context.Context, maxTokens int) (llm.Chunk, error) {
	if err := s.g.hold(ctx); err != nil {
		return llm.Chunk{}, err
	}
	return s.ChunkStream.Next(ctx, maxTokens)
}

// awaitCalls waits until n more calls are blocked at the gate.
func (g *gatedBackend) awaitCalls(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("generation call %d of %d never reached the backend", i+1, n)
		}
	}
}

// release lets n blocked calls through.
func (g *gatedBackend) release(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case g.permits <- struct{}{}:
		case <-time.After(10 * time.Second):
			t.Fatalf("no generation call took permit %d of %d", i+1, n)
		}
	}
}

type sseFrame struct {
	Event string
	Data  string
}

func (f sseFrame) round(t *testing.T) int {
	t.Helper()
	var ev struct {
		Round int `json:"round"`
	}
	if err := json.Unmarshal([]byte(f.Data), &ev); err != nil {
		t.Fatalf("frame %s: %v", f.Event, err)
	}
	return ev.Round
}

// liveStream is a /api/query request whose frames are handed over as the
// connection delivers them.
type liveStream struct {
	header chan http.Header
	frames chan sseFrame // closed at end of stream
}

func openLiveStream(ctx context.Context, t *testing.T, url string, req QueryRequest) *liveStream {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ls := &liveStream{header: make(chan http.Header, 1), frames: make(chan sseFrame, 1024)}
	go func() {
		defer close(ls.frames)
		hr, err := http.NewRequestWithContext(ctx, "POST", url+"/api/query", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		hr.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			if ctx.Err() == nil {
				t.Error(err)
			}
			return
		}
		defer resp.Body.Close()
		ls.header <- resp.Header
		br := bufio.NewReader(resp.Body)
		var fr sseFrame
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimSuffix(line, "\n")
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				fr.Event = v
			} else if v, ok := strings.CutPrefix(line, "data: "); ok {
				fr.Data = v
			} else if line == "" && fr.Event != "" {
				ls.frames <- fr
				fr = sseFrame{}
			}
		}
	}()
	return ls
}

// until returns the frames received up to and including the first one
// stop accepts, failing if the connection does not deliver it.
func (ls *liveStream) until(t *testing.T, what string, stop func(sseFrame) bool) []sseFrame {
	t.Helper()
	var got []sseFrame
	for {
		select {
		case fr, ok := <-ls.frames:
			if !ok {
				t.Fatalf("stream ended before %s; got %v", what, eventNames(got))
			}
			got = append(got, fr)
			if stop(fr) {
				return got
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("client never received %s while the orchestrator waited; got %v", what, eventNames(got))
		}
	}
}

func eventNames(frames []sseFrame) []string {
	out := make([]string, len(frames))
	for i, f := range frames {
		out[i] = f.Event
	}
	return out
}

func countEvents(frames []sseFrame) map[string]int {
	m := make(map[string]int)
	for _, f := range frames {
		m[f.Event]++
	}
	return m
}

// TestSSEFlushesBeforeEveryWait is the liveness half of the flush rule,
// over a real connection: whenever the orchestrator blocks on generation,
// the client already holds every frame emitted so far — the headers and
// "start" while round 1's tokens are withheld, every frame of round 1
// while round 2's are. Removing core.Config.BeforeWait (or its wiring)
// leaves the client without headers at the first wait and fails here.
func TestSSEFlushesBeforeEveryWait(t *testing.T) {
	const models = 3
	cases := []struct {
		strategy string
		// first is what the client holds while wave 1 is withheld; wave2
		// is the round number that opens the second wait.
		first []string
		wave2 int
	}{
		{"oua", []string{"start", "round"}, 2},
		// MAB's initial fan-out announces its rounds after the wait.
		{"mab", []string{"start"}, models + 1},
		{"hybrid", []string{"start", "round"}, models + 1},
	}
	for _, tc := range cases {
		t.Run(tc.strategy, func(t *testing.T) {
			_, ts, g := newGatedServer(t, ServingOptions{})
			ls := openLiveStream(context.Background(), t, ts.URL,
				QueryRequest{Query: "What is the capital of France?", Strategy: tc.strategy, MaxTokens: 192})

			// Wave 1: every model's first tokens are withheld.
			g.awaitCalls(t, models)
			select {
			case h := <-ls.header:
				if h.Get("X-Session-ID") == "" || h.Get("X-Query-ID") == "" {
					t.Fatalf("headers at the first wait: %v", h)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("client has no response headers while the orchestrator waits on round 1")
			}
			last := tc.first[len(tc.first)-1]
			got := ls.until(t, last+" before round 1's tokens", func(f sseFrame) bool { return f.Event == last })
			if !reflect.DeepEqual(eventNames(got), tc.first) {
				t.Fatalf("frames at the first wait = %v, want %v", eventNames(got), tc.first)
			}

			// Wave 2: round 1 ran, the next tokens are withheld. Everything
			// round 1 emitted leaves with the frame that opens the wait.
			g.release(t, models)
			g.awaitCalls(t, 1)
			got = ls.until(t, "round 1's frames before the next tokens", func(f sseFrame) bool {
				return f.Event == "round" && f.round(t) == tc.wave2
			})
			n := countEvents(got)
			if n["chunk"] != models || n["score"] != models || n["round_stall"] != 1 || n["score_pass"] != 1 || n["stream_open"] != models {
				t.Fatalf("round 1 at the second wait = %v", eventNames(got))
			}

			g.open()
			rest := ls.until(t, "the result", func(f sseFrame) bool { return f.Event == "result" })
			if n := countEvents(rest); n["winner"] != 1 || n["error"] != 0 {
				t.Fatalf("rest of the stream = %v", eventNames(rest))
			}
		})
	}

	t.Run("single", func(t *testing.T) {
		_, ts, g := newGatedServer(t, ServingOptions{})
		ls := openLiveStream(context.Background(), t, ts.URL,
			QueryRequest{Query: "What is the capital of France?", Strategy: "single", MaxTokens: 64})
		g.awaitCalls(t, 1)
		ls.until(t, "start before the only generation call", func(f sseFrame) bool { return f.Event == "start" })
		g.open()
		ls.until(t, "the result", func(f sseFrame) bool { return f.Event == "result" })
	})
}

// TestSSEFlushBudget is the other half: a stream flushes when its
// producer waits, not per frame, and its terminal frame leaves with the
// end of the body, unflushed. The waits of a query follow from the rounds
// its result reports; a cache hit never waits.
func TestSSEFlushBudget(t *testing.T) {
	for _, strategy := range []string{"oua", "mab", "hybrid", "single"} {
		t.Run(strategy, func(t *testing.T) {
			s, ts := newServingServer(t, ServingOptions{CacheTTL: time.Minute}, nil)
			q := map[string]any{"query": "What is the capital of France?", "strategy": strategy, "max_tokens": 192}
			_, body := postQuery(t, ts.URL, q)
			frames := sseFrames(t, body)
			var res struct {
				Result core.Result `json:"result"`
			}
			if err := json.Unmarshal([]byte(frames[len(frames)-1].Data), &res); err != nil {
				t.Fatal(err)
			}
			// OUA waits once a round; the bandits fan their first pulls
			// out under one wait and then wait once a pull.
			waits := res.Result.Rounds
			if strategy == "mab" || strategy == "hybrid" {
				waits -= len(res.Result.Outcomes) - 1
			}
			flushes := int(s.tel.SSEFlushes.Value())
			if flushes < 1 || flushes > waits {
				t.Fatalf("%d flushes for %d frames over %d waits, want 1..%d", flushes, len(frames), waits, waits)
			}
			if got := int(s.tel.SSEFrames.Value()); got != len(frames) {
				t.Fatalf("sse_frames_written_total = %d, client read %d frames", got, len(frames))
			}

			// A hit replays the recording and its result with the end of
			// the body, without a flush.
			resp, hit := postQuery(t, ts.URL, q)
			if resp.Header.Get("X-Cache") != "HIT" {
				t.Fatalf("repeat X-Cache = %q", resp.Header.Get("X-Cache"))
			}
			if got := int(s.tel.SSEFlushes.Value()) - flushes; got != 0 {
				t.Fatalf("a cache hit flushed %d times, want 0", got)
			}
			if got := int(s.tel.SSEFrames.Value()); got != len(frames)+len(sseFrames(t, hit)) {
				t.Fatalf("sse_frames_written_total = %d after a hit of %d frames on top of %d", got, len(sseFrames(t, hit)), len(frames))
			}
		})
	}
}

// writeCounter is a listener whose connections count their writes: the
// write(2)s the server side of a connection makes.
type writeCounter struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{c, &l.writes}, nil
}

type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestCacheHitCostsOneWrite: a cache hit's headers, replayed stream,
// result frame and the end of its body leave in one write(2).
func TestCacheHitCostsOneWrite(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	s, err := NewServer(Options{Engine: engine, Serving: ServingOptions{CacheTTL: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	watchResources(t, s)
	ts := httptest.NewUnstartedServer(s)
	counter := &writeCounter{Listener: ts.Listener}
	ts.Listener = counter
	settled := make(chan struct{}, 1)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateIdle || st == http.StateClosed {
			select {
			case settled <- struct{}{}:
			default:
			}
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	// A short answer, so that the whole response fits the connection's
	// 4 KiB write buffer.
	q := map[string]any{"query": "What is the capital of France?", "strategy": "single", "max_tokens": 32}
	for _, want := range []string{"MISS", "HIT", "HIT"} {
		before := counter.writes.Load()
		resp, body := postQuery(t, ts.URL, q)
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Fatalf("X-Cache = %q, want %s", got, want)
		}
		select {
		case <-settled: // the response is over, its end written
		case <-time.After(5 * time.Second):
			t.Fatal("the server never finished the response")
		}
		if len(body) > 3<<10 {
			t.Fatalf("a %d-byte body no longer fits one write; shorten the answer", len(body))
		}
		if n := counter.writes.Load() - before; want == "HIT" && n != 1 {
			t.Fatalf("a cache hit cost the server %d write(2)s, want 1", n)
		}
	}
}

// TestWriterLeftToFollowersIsNotPooled: a coalescing leader whose
// followers keep its buffer closes a writer without one, which is not
// pooled, so every writer the pool hands out has room for a stream.
func TestWriterLeftToFollowersIsNotPooled(t *testing.T) {
	tel := telemetry.New(telemetry.Options{})
	sw := newSSEWriter(httptest.NewRecorder(), tel, []string{"s", "q"}, nil)
	sw.buf = nil // what finish does when the flight had followers
	sw.close(context.Background())
	for i := 0; i < 8; i++ {
		sw := newSSEWriter(httptest.NewRecorder(), tel, []string{"s", "q"}, nil)
		if cap(sw.buf) == 0 {
			t.Fatal("the pool handed out a writer without a buffer")
		}
		defer sw.close(context.Background())
	}
}

// TestQueryClientDisconnectStopsOrchestration: a client that closes its
// connection mid-query, with nobody coalesced behind it, stops the
// orchestration — no further round reaches the backend.
// TestQueryLeaderDisconnectKeepsFollower is the other case.
func TestQueryClientDisconnectStopsOrchestration(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		s, ts, g := newGatedServer(t, ServingOptions{Coalesce: coalesce})
		ctx, hangUp := context.WithCancel(context.Background())
		defer hangUp()
		ls := openLiveStream(ctx, t, ts.URL, QueryRequest{Query: "What is the capital of France?", MaxTokens: 192})
		g.awaitCalls(t, 3)
		ls.until(t, "round 1's opening", func(f sseFrame) bool { return f.Event == "round" })
		hangUp()
		// The handler counts the dropped stream on its way out, with the
		// orchestration behind it.
		deadline := time.Now().Add(10 * time.Second)
		for s.tel.SSEDropped.Value() < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("coalesce=%v: the orchestration outlived its only client", coalesce)
			}
			time.Sleep(time.Millisecond)
		}
		g.open()
		if got := g.calls.Load(); got > 6 {
			t.Fatalf("coalesce=%v: %d generation calls, want the orchestration stopped within one round of the 3 in flight", coalesce, got)
		}
	}
}

// TestQueryUnencodableResultEndsInErrorFrame: a result encoding/json
// refuses (NaN scores, forced here through a NaN weight) still ends the
// stream with exactly one terminal frame on every path — leader,
// coalesced follower, cache hit — and the frames that cannot be encoded
// are dropped and counted, not fatal.
func TestQueryUnencodableResultEndsInErrorFrame(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	backend := newBlockingBackend(engine)
	s, err := NewServer(Options{Engine: engine, Backend: backend,
		Serving: ServingOptions{CacheTTL: time.Minute, Coalesce: true}})
	if err != nil {
		t.Fatal(err)
	}
	s.settings.Alpha = math.NaN() // JSON has no NaN, so PUT /api/settings cannot set it
	ts := httptest.NewServer(s)
	defer ts.Close()

	q := map[string]any{"query": "What is the capital of France?", "max_tokens": 96}
	bodies := make(chan outcomePair, 2)
	ask := func() {
		resp, body := postQuery(t, ts.URL, q)
		bodies <- outcomePair{resp, body}
	}
	go ask()
	<-backend.started
	go ask()
	deadline := time.Now().Add(5 * time.Second)
	for s.tel.Coalesced.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(backend.release)
	outs := []outcomePair{<-bodies, <-bodies}
	resp, body := postQuery(t, ts.URL, q)
	outs = append(outs, outcomePair{resp, body})

	paths := map[string]bool{}
	for _, o := range outs {
		path := o.resp.Header.Get("X-Cache")
		paths[path] = true
		frames := sseFrames(t, o.body)
		n := map[string]int{}
		for _, f := range frames {
			n[f.Event]++
		}
		last := frames[len(frames)-1]
		if n["result"] != 0 || n["error"] != 1 || last.Event != "error" || !strings.Contains(last.Data, `"code":"encode_failed"`) {
			t.Fatalf("%s: terminal frames result=%d error=%d, last %s %s", path, n["result"], n["error"], last.Event, last.Data)
		}
		if n["chunk"] == 0 || n["score"] != 0 {
			t.Fatalf("%s: %d chunk and %d score frames, want the stream to go on past dropped NaN scores", path, n["chunk"], n["score"])
		}
	}
	if !paths["MISS"] || !paths["COALESCED"] || !paths["HIT"] {
		t.Fatalf("paths taken = %v, want MISS, COALESCED and HIT", paths)
	}
	if got := s.tel.SSEEncodeErrors.Value(); got < 4 {
		t.Fatalf("sse_encode_errors_total = %v, want the dropped frames and all three results counted", got)
	}
}

// eventOf builds a core.Event from fuzz arguments.
func eventOf(typ, strategy, model, text, reason string, round, tokens, attempts, prefetched int,
	score, qsim, isim float64, elapsed int64, zeroTime bool, sec, nsec int64, zone int) core.Event {
	ev := core.Event{
		Type: core.EventType(typ), Strategy: core.Strategy(strategy), Model: model, Text: text, Reason: reason,
		Round: round, Tokens: tokens, Attempts: attempts, Prefetched: prefetched,
		Score: score, QuerySim: qsim, InterSim: isim, Elapsed: time.Duration(elapsed),
	}
	if !zeroTime {
		ev.Time = time.Unix(sec, nsec).In(time.FixedZone("", zone))
	}
	return ev
}

// checkEventFrame holds the append encoder to encoding/json: same bytes,
// or both refuse.
func checkEventFrame(t *testing.T, ev core.Event) {
	t.Helper()
	want, err := json.Marshal(ev)
	got, ok := appendEventJSON(nil, &ev)
	if ok != (err == nil) {
		t.Fatalf("append encoder ok=%v, json.Marshal err=%v for %+v", ok, err, ev)
	}
	if ok && !bytes.Equal(got, want) {
		t.Fatalf("append encoder\n got %s\nwant %s", got, want)
	}
}

// FuzzEventFrame: for any field values the frame's data bytes are exactly
// what json.Marshal(ev) produces — encoding/json stays the reference.
func FuzzEventFrame(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add("chunk", "oua", "llama3:8b", "Paris is the capital.", "", 1, 16, 1, 4, 0.0, 0.0, 0.0, int64(1234567), false, int64(1759400000), int64(123456789), 0)
	f.Add("score", "mab", "m", "", "", 3, 0, 0, 0, 0.8125, 1e-7, 123456789012345678901.0, int64(0), false, int64(1759400000), int64(0), 3600)
	f.Add("score", "hybrid", "m", "", "", 3, 0, 0, 0, 1e-6, 9.999999e-7, 1e21, int64(-5), false, int64(0), int64(1), -12*3600)
	f.Add("prune", "oua", "m", "", "trailing by 0.120", 2, 0, 0, 0, negZero, 5e-324, -1.5e300, int64(1), true, int64(0), int64(0), 0)
	f.Add("score", "oua", "m", "", "", 1, 0, 0, 0, math.NaN(), 0.5, 0.5, int64(0), false, int64(1), int64(0), 0)
	f.Add("score", "oua", "m", "", "", 1, 0, 0, 0, 0.5, math.Inf(1), 0.5, int64(0), false, int64(1), int64(0), 0)
	f.Add("score", "oua", "m", "", "", 1, 0, 0, 0, 0.5, 0.5, math.Inf(-1), int64(0), false, int64(1), int64(0), 0)
	f.Add("winner", "single", "a\"b\\c", "ctl \x00\x01\b\f\n\r\t\x1f\x7f <script>&amp;</script>", "sep \u2028 \u2029 \u00e9 \U0001F600", -1, -2, -3, -4, -0.25, 0.1, 100.0, int64(math.MaxInt64), false, int64(1759400000), int64(999999999), 5*3600+1800)
	f.Add("model_failed", "mab", "bad \xff utf8 \xc3", "lone surrogate \xed\xa0\x80 and \xed\xbf\xbf, cut \xe2\x80", "after 3 attempts: \xf0\x9f", 9, 0, 3, 0, 0.0, 0.0, 0.0, int64(0), false, int64(-62135596800), int64(0), 0)
	// Times RFC 3339 cannot carry: years past 9999 and before 0, a zone a day wide.
	f.Add("start", "oua", "", "", "", 0, 0, 0, 0, 0.0, 0.0, 0.0, int64(0), false, int64(253402300800), int64(0), 0)
	f.Add("start", "oua", "", "", "", 0, 0, 0, 0, 0.0, 0.0, 0.0, int64(0), false, int64(-62198755200), int64(0), 0)
	f.Add("start", "oua", "", "", "", 0, 0, 0, 0, 0.0, 0.0, 0.0, int64(0), false, int64(1759400000), int64(0), 24*3600)
	f.Add("start", "oua", "", "", "", 0, 0, 0, 0, 0.0, 0.0, 0.0, int64(0), false, int64(1759400000), int64(0), -(23*3600 + 59*60 + 59))
	f.Add("start", "oua", "", "", "", 0, 0, 0, 0, 0.0, 0.0, 0.0, int64(0), false, int64(1759400000), int64(0), 100*3600)
	f.Fuzz(func(t *testing.T, typ, strategy, model, text, reason string, round, tokens, attempts, prefetched int,
		score, qsim, isim float64, elapsed int64, zeroTime bool, sec, nsec int64, zone int) {
		checkEventFrame(t, eventOf(typ, strategy, model, text, reason, round, tokens, attempts, prefetched,
			score, qsim, isim, elapsed, zeroTime, sec, nsec, zone))
	})
}

// checkResultFrame holds the result encoder to encoding/json: same bytes,
// or both refuse.
func checkResultFrame(t *testing.T, res core.Result) {
	t.Helper()
	want, err := json.Marshal(res)
	got, ok := appendResultJSON(nil, &res)
	if ok != (err == nil) {
		t.Fatalf("append encoder ok=%v, json.Marshal err=%v for %+v", ok, err, res)
	}
	if ok && !bytes.Equal(got, want) {
		t.Fatalf("append encoder\n got %s\nwant %s", got, want)
	}
}

// FuzzResultFrame: for any field values, nil/empty/one/two outcomes, the
// result's bytes are exactly what json.Marshal(res) produces, and a NaN or
// infinite score is refused exactly where json.Marshal refuses it.
func FuzzResultFrame(f *testing.F) {
	if n, m := reflect.TypeOf(core.Result{}).NumField(), reflect.TypeOf(core.ModelOutcome{}).NumField(); n != 8 || m != 12 {
		f.Fatalf("core.Result has %d fields and core.ModelOutcome %d; appendResultJSON in sse.go encodes 8 and 12 — teach it the new ones", n, m)
	}
	negZero := math.Copysign(0, -1)
	f.Add("oua", "Paris.", "llama3:8b", 96, 3, true, int64(123456789), uint8(3), "mistral:7b", "Paris is the capital.", "stop", "", 32, 2, 0.8125, 0.75, 0.5, false, true, false)
	f.Add("mab", "", "", 0, 0, false, int64(0), uint8(0), "", "", "", "", 0, 0, 0.0, 0.0, 0.0, false, false, false)
	f.Add("single", "x", "m", -1, -2, false, int64(-5), uint8(1), "", "", "", "", 0, 0, 0.0, 0.0, 0.0, false, false, false)
	f.Add("hybrid", "ctl \x00\x01\b\f\n\r\t\x1f\x7f <script>&amp;</script>", "a\"b\\c", 1, 1, false, int64(math.MaxInt64), uint8(2),
		"bad \xff utf8 \xc3", "sep \u2028 \u2029 \u00e9 \U0001F600", "length", "daemon <down> & out", -3, 7, negZero, 1e-7, 1e21, true, false, true)
	f.Add("oua", "a", "m", 1, 1, false, int64(1), uint8(2), "m", "r", "", "", 1, 1, 5e-324, -1.5e300, 9.999999e-7, false, false, false)
	f.Add("oua", "a", "m", 1, 1, false, int64(1), uint8(2), "m", "r", "", "", 1, 1, math.NaN(), 0.5, 0.5, false, false, false)
	f.Add("oua", "a", "m", 1, 1, false, int64(1), uint8(3), "m", "r", "", "", 1, 1, 0.5, math.Inf(1), 0.5, false, false, false)
	f.Add("oua", "a", "m", 1, 1, false, int64(1), uint8(3), "m", "r", "", "", 1, 1, 0.5, 0.5, math.Inf(-1), false, false, false)
	f.Fuzz(func(t *testing.T, strategy, answer, model string, tokensUsed, rounds int, early bool, elapsed int64, n uint8,
		oModel, response, doneReason, errText string, tokens, pulls int, score, qsim, isim float64, pruned, done, failed bool) {
		res := core.Result{
			Strategy: core.Strategy(strategy), Answer: answer, Model: model, TokensUsed: tokensUsed,
			Rounds: rounds, EarlyExit: early, Elapsed: time.Duration(elapsed),
		}
		o := core.ModelOutcome{
			Model: oModel, Response: response, Tokens: tokens, Score: score, QuerySim: qsim, InterSim: isim,
			Pulls: pulls, Pruned: pruned, Done: done, DoneReason: doneReason, Failed: failed, Error: errText,
		}
		switch n % 4 {
		case 1:
			res.Outcomes = []core.ModelOutcome{}
		case 2:
			res.Outcomes = []core.ModelOutcome{o}
		case 3:
			p := o
			p.Model, p.Response, p.Score, p.Failed, p.Error = o.Response, o.Model, -o.QuerySim, !o.Failed, o.DoneReason
			res.Outcomes = []core.ModelOutcome{p, o}
		}
		checkResultFrame(t, res)
	})
}

// TestEventFrameEveryType walks the events the four strategies really
// emit — with a stream that breaks and a model that fails, so every
// core.EventType occurs — through both encoders, and through the writer
// to pin the frame format around them.
func TestEventFrameEveryType(t *testing.T) {
	if n := reflect.TypeOf(core.Event{}).NumField(); n != 14 {
		t.Fatalf("core.Event has %d fields; appendEventJSON in sse.go encodes 14 — teach it the new one", n)
	}
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	models := DefaultSettings().EnabledModels
	seen := map[core.EventType]int{}
	for _, strategy := range []core.Strategy{core.StrategyOUA, core.StrategyMAB, core.StrategyHybrid, core.StrategySingle} {
		backend := llmtest.NewFaultBackend(engine)
		backend.EnableStreams()
		switch strategy {
		case core.StrategyMAB:
			backend.BreakStreamAfter(models[1], 5)
		case core.StrategyHybrid:
			backend.FailStreamOpen(models[2], errors.New("no sessions"))
			backend.FailAlways(models[2], errors.New("daemon <down> & out"))
		}
		cfg := core.DefaultConfig(models...)
		cfg.MaxTokens = 192
		rec := httptest.NewRecorder()
		sw := newSSEWriter(rec, telemetry.New(telemetry.Options{}), []string{"s", "q"}, nil)
		var want bytes.Buffer
		cfg.OnEvent = func(ev core.Event) {
			seen[ev.Type]++
			checkEventFrame(t, ev)
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			want.WriteString("event: " + string(ev.Type) + "\ndata: ")
			want.Write(data)
			want.WriteString("\n\n")
			sw.event(ev)
		}
		oc, err := core.New(backend, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := oc.Run(context.Background(), strategy, "Question: What is the capital of France?\nAnswer:")
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		checkResultFrame(t, res)
		sw.flush()
		if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: stream differs from Fprintf+json.Marshal framing\n got %q\nwant %q", strategy, got, want.Bytes())
		}
		sw.close(context.Background())
	}
	for _, typ := range []core.EventType{
		core.EventStart, core.EventRound, core.EventChunk, core.EventScore, core.EventPrune,
		core.EventModelFailed, core.EventScorePass, core.EventStreamOpen, core.EventStreamClose,
		core.EventStreamFallback, core.EventRoundStall, core.EventWinner,
	} {
		if seen[typ] == 0 {
			t.Errorf("no %q event was emitted; the walk no longer covers every type (saw %v)", typ, seen)
		}
	}
}

// TestSSEWriterBoundsPending: frames past the pending cap are handed to
// the ResponseWriter without waiting for a flush, and a stream replayed
// from rendered bytes arrives unchanged.
func TestSSEWriterBoundsPending(t *testing.T) {
	rec := httptest.NewRecorder()
	tel := telemetry.New(telemetry.Options{})
	sw := newSSEWriter(rec, tel, []string{"s", "q"}, xcacheHit)
	defer sw.close(context.Background())
	big := core.Event{Type: core.EventChunk, Strategy: core.StrategyOUA, Text: strings.Repeat("x", maxPendingSSE/2)}
	sw.event(big)
	if rec.Body.Len() != 0 {
		t.Fatalf("%d bytes written before any flush or overflow", rec.Body.Len())
	}
	sw.event(big)
	sw.event(big)
	if held := len(sw.buf) - sw.sent; held > maxPendingSSE || rec.Body.Len() == 0 {
		t.Fatalf("%d bytes pending with %d written; the cap is %d", held, rec.Body.Len(), maxPendingSSE)
	}
	if got := tel.SSEFlushes.Value(); got != 0 {
		t.Fatalf("overflow counted %v flushes", got)
	}
	sw.flush()
	if got, frames := tel.SSEFlushes.Value(), tel.SSEFrames.Value(); got != 1 || frames != 3 {
		t.Fatalf("flushes = %v, frames = %v, want 1 and 3", got, frames)
	}
	first := rec.Body.String()

	rec2 := httptest.NewRecorder()
	sw2 := newSSEWriter(rec2, tel, []string{"s", "q"}, xcacheHit)
	defer sw2.close(context.Background())
	sw2.replay([]byte(first), 3)
	sw2.flush()
	if rec2.Body.String() != first || rec2.Header().Get("X-Cache") != "HIT" {
		t.Fatal("a replayed stream differs from the recording")
	}
	if frames := tel.SSEFrames.Value(); frames != 6 {
		t.Fatalf("frames = %v after replaying 3 more, want 6", frames)
	}
}
