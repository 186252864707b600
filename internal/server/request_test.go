package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"strings"
	"testing"
	"time"

	"llmms/internal/core"
	"llmms/internal/llm"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
)

// stepReader hands out b at most step bytes at a time, as a connection
// may, then tail as fast as it is asked for.
type stepReader struct {
	b, tail []byte
	step    int
}

func (r *stepReader) Read(p []byte) (n int, err error) {
	switch {
	case len(r.b) > 0:
		n = copy(p[:min(len(p), r.step)], r.b)
		r.b = r.b[n:]
	case len(r.tail) > 0:
		n = copy(p, r.tail)
		r.tail = r.tail[n:]
	default:
		err = io.EOF
	}
	return n, err
}

// queryRequest is a /api/query request whose body is body, then tail,
// read step bytes at a time, with its length announced when sized and
// chunked otherwise.
func queryRequest(body, tail []byte, sized bool, step int) *http.Request {
	rd := &stepReader{b: body, tail: tail, step: step}
	r := httptest.NewRequest(http.MethodPost, "/api/query", nil)
	r.Body, r.ContentLength = io.NopCloser(rd), -1
	if sized {
		r.ContentLength = int64(len(body) + len(rd.tail))
	}
	return r
}

// FuzzQueryRequest holds readQuery to its reference, readJSON — the
// decoder over the capped body /api/query read every request through
// before — on any body, read in steps of any size, with and without a
// length, and taken past maxJSONBody by white space when long: both give
// the same QueryRequest, or the same status, code and message.
func FuzzQueryRequest(f *testing.F) {
	for _, req := range []QueryRequest{
		{Query: "Is 2 < 3 && 5 > 4?", Strategy: "oua", MaxTokens: 128},
		{Query: "What did the report say?", SessionID: "s000042", Strategy: "mab", UseRAG: true, DocID: "doc-7"},
		{Query: "Café   \"quoted\"\n", Strategy: "single", Model: "mistral:7b", MaxTokens: -1,
			EphemeralContext: "The <b>lab</b> server has a V100."},
		{},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, false, true, uint8(255))
	}
	for _, body := range []string{
		`{"query":"a"} {"query":"b"}`,
		`{"query":"a"}x`,
		`{"query":"a","query":"b","max_tokens":1,"max_tokens":2}`,
		`{"QUERY":"a","Strategy":"mab"}`,
		`{"query":"a","Query":"b"}`,
		`{"query":null}`,
		`{"query":"a","max_tokens":null,"use_rag":null}`,
		`null`,
		`{"query":"a","max_tokens":1e400}`,
		`{"query":"a","max_tokens":99999999999999999999}`,
		`{"query":"a","max_tokens":-9223372036854775809}`,
		`{"query":"a","max_tokens":1.5}`,
		`{"query":"a","max_tokens":"5"}`,
		`{"query":"a","extra":[1,{"b":2}]}`,
		"{\"query\":\"\xff\"}",
		`{"query":"😀"}`,
		` { "query" : "a" , "use_rag" : true } `,
		`{"query":"a"`,
		``,
	} {
		f.Add([]byte(body), false, false, uint8(2))
	}
	// Over the cap: an object that ends early, and one the padding is inside.
	f.Add([]byte(`{"query":"a"}`), true, true, uint8(255))
	f.Add([]byte(`{"query":"a"}`), true, false, uint8(7))
	f.Add([]byte(`{"query":"a`), true, false, uint8(255))
	// A long body ends in enough white space to take it past the cap.
	padding := bytes.Repeat([]byte{' '}, maxJSONBody)
	f.Fuzz(func(t *testing.T, body []byte, long, sized bool, step uint8) {
		var tail []byte
		if long {
			tail = padding
		}
		var got, want QueryRequest
		bad := readQuery(httptest.NewRecorder(), queryRequest(body, tail, sized, int(step)+1), &got)
		ref := queryRequest(body, tail, sized, int(step)+1)
		wantBad := readJSON(httptest.NewRecorder(), ref.Body, &want)
		switch {
		case (bad == nil) != (wantBad == nil):
			t.Fatalf("readQuery: %+v, %+v; readJSON: %+v, %+v", got, bad, want, wantBad)
		case bad == nil && got != want:
			t.Fatalf("readQuery decoded %+v, readJSON %+v", got, want)
		case bad != nil && (bad.status != wantBad.status || bad.code != wantBad.code || bad.message != wantBad.message):
			t.Fatalf("readQuery refused with %+v, readJSON with %+v", bad, wantBad)
		}
	})
}

// bodyReader is a request body to read again.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// TestReadQueryAllocates: a client's body decodes into the strings the
// query keeps and nothing else.
func TestReadQueryAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	body := []byte(`{"query":"What happens if you crack your knuckles a lot?","strategy":"oua","max_tokens":128}`)
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/api/query", nil)
	rd := new(bodyReader)
	r.Body, r.ContentLength = rd, int64(len(body))
	var req QueryRequest
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		if bad := readQuery(w, r, &req); bad != nil {
			t.Fatal(bad)
		}
	})
	if allocs > 2 {
		t.Fatalf("%.0f allocations a decode, want 2: the query and the strategy", allocs)
	}
}

// servingScopeRef is the scope servingKey rendered with fmt.
func servingScopeRef(q *query) string {
	ragFP := "-"
	if q.req.UseRAG {
		ragFP = fmt.Sprintf("rag:%s:%d", q.req.DocID, q.st.RAGTopK)
	}
	return fmt.Sprintf("%s|%s|%d|%g|%g|%s",
		q.strategy, strings.Join(q.models, ","), q.st.MaxTokens, q.st.Alpha, q.st.Beta, ragFP)
}

// TestServingScopeMatchesSprintf: the scope's bytes are fmt's, so a cache
// snapshot written by either reads the same keys.
func TestServingScopeMatchesSprintf(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 0.7, 0.3, 1, 1e-7, 1e21, 123456789, 0.1 + 0.2, math.Inf(1), math.NaN()}
	for i, models := range [][]string{nil, {"m"}, {"llama3:8b", "mistral:7b", "qwen2:7b"}} {
		for j, a := range floats {
			var q query
			q.strategy, q.models = core.StrategyOUA, models
			q.st.MaxTokens, q.st.Alpha, q.st.Beta = 128*i-1, a, floats[(j+3)%len(floats)]
			q.req.UseRAG, q.req.DocID, q.st.RAGTopK = j%2 == 1, "doc|"+fmt.Sprint(j), j
			if got, want := servingScope(&q), servingScopeRef(&q); got != want {
				t.Fatalf("scope %q, fmt renders %q", got, want)
			}
		}
	}
}

// setHeadRef is the head an /api/query stream answered with when each
// field was Set: X-Trace-ID from begin, then the stream's own from the
// writer's open.
func setHeadRef(traceID, sessID, queryID, xcache string) http.Header {
	h := http.Header{}
	h.Set("X-Trace-ID", traceID)
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Session-ID", sessID)
	h.Set("X-Query-ID", queryID)
	if xcache != "" {
		h.Set("X-Cache", xcache)
	}
	return h
}

// rawResponse is one response as its bytes crossed the wire: the head's
// lines but Date, and the body with any chunked framing taken off.
type rawResponse struct {
	head    []string
	body    []byte
	chunked bool
}

// roundTrip writes body to /api/query at addr on a connection of its own
// and reads the reply's bytes.
func roundTrip(t *testing.T, addr, body string) rawResponse {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	fmt.Fprintf(conn, "POST /api/query HTTP/1.1\r\nHost: llmms\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(body), body)
	br := bufio.NewReader(conn)
	var raw rawResponse
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
		if strings.HasPrefix(line, "Date: ") {
			continue
		}
		raw.head = append(raw.head, line)
		raw.chunked = raw.chunked || line == "Transfer-Encoding: chunked\r\n"
	}
	var rd io.Reader = br
	if raw.chunked {
		rd = httputil.NewChunkedReader(br)
	}
	if raw.body, err = io.ReadAll(rd); err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestQueryHeadsMatchSetReference: a MISS, a HIT, a 400 invalid_json and
// a 413 cross the wire byte for byte as when each head field was Set. Each
// reply is compared to one a reference handler writes through net/http:
// setHeadRef's head over the reply's own ids, and for the refusals the
// envelope readJSON and writeErr make of the same body.
func TestQueryHeadsMatchSetReference(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	t.Cleanup(func() { engine.Close() })
	s, err := NewServer(Options{Engine: engine, Serving: ServingOptions{CacheTTL: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var want struct {
		head          http.Header
		status        int
		body          []byte
		flush, refuse bool
	}
	ref := httptest.NewServer(http.HandlerFunc(func(hw http.ResponseWriter, r *http.Request) {
		w := telemetry.NewResponseRecorder(hw) // as Server.handle wraps every route
		if want.refuse {
			var req QueryRequest
			bad := readJSON(w, r.Body, &req)
			writeErr(w, bad.status, bad.code, "%s", bad.message)
			return
		}
		for k, v := range want.head {
			w.Header()[k] = v
		}
		w.WriteHeader(want.status)
		w.Write(want.body)
		if want.flush {
			w.Flush()
		}
	}))
	t.Cleanup(ref.Close)

	ask := `{"query":"What is the capital of France?","strategy":"oua","max_tokens":96}`
	for _, tc := range []struct {
		name, body, xcache string
		status             int
	}{
		{"MISS", ask, "MISS", http.StatusOK},
		{"HIT", ask, "HIT", http.StatusOK},
		{"invalid_json", `{"query":`, "", http.StatusBadRequest},
		{"too_large", `{"query":"` + strings.Repeat("x", maxJSONBody) + `"}`, "", http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := roundTrip(t, ts.Listener.Addr().String(), tc.body)
			if len(got.head) == 0 || !strings.Contains(got.head[0], fmt.Sprint(tc.status)) {
				t.Fatalf("status line %q, want %d", got.head, tc.status)
			}
			want.refuse = tc.status != http.StatusOK
			if !want.refuse {
				want.head = setHeadRef(got.headValue("X-Trace-Id"), got.headValue("X-Session-Id"), got.headValue("X-Query-Id"), tc.xcache)
				want.status, want.body, want.flush = tc.status, got.body, got.chunked
			}
			exp := roundTrip(t, ref.Listener.Addr().String(), tc.body)
			if strings.Join(got.head, "") != strings.Join(exp.head, "") || !bytes.Equal(got.body, exp.body) {
				t.Fatalf("reply\n%s\n%s\nthe reference\n%s\n%s", strings.Join(got.head, ""), got.body, strings.Join(exp.head, ""), exp.body)
			}
			if !want.refuse && !bytes.Contains(got.body, []byte(`"session_id":"`+got.headValue("X-Session-Id")+`"`)) {
				t.Fatal("the result frame does not carry the head's session id")
			}
		})
	}
}

// headValue returns the value of the head's field k.
func (r rawResponse) headValue(k string) string {
	for _, line := range r.head {
		if v, ok := strings.CutPrefix(strings.TrimSuffix(line, "\r\n"), k+": "); ok {
			return v
		}
	}
	return ""
}
