package modeld

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"llmms/internal/llm"
	"llmms/internal/telemetry"
	"llmms/internal/tokenizer"
	"llmms/internal/truthfulqa"
)

// tap records what crosses one daemon's HTTP surface: every request body
// and every response, byte for byte.
type tap struct {
	mu        sync.Mutex
	requests  [][]byte
	responses [][]byte
}

type tapWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *tapWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

func (w *tapWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (tp *tap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		tp.mu.Lock()
		tp.requests = append(tp.requests, body)
		tp.mu.Unlock()
		tw := &tapWriter{ResponseWriter: w}
		h.ServeHTTP(tw, r)
		tp.mu.Lock()
		tp.responses = append(tp.responses, tw.buf.Bytes())
		tp.mu.Unlock()
	})
}

// last returns the latest exchange, once its handler has returned: the
// client has the done line a moment before that. Requests are sequential
// in these tests.
func (tp *tap) last(t *testing.T) (request, response []byte) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		tp.mu.Lock()
		if n := len(tp.requests); n > 0 && len(tp.responses) == n {
			defer tp.mu.Unlock()
			return tp.requests[n-1], tp.responses[n-1]
		}
		tp.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the daemon's handler did not return")
		}
	}
}

// TestDoneLineOverTheHop drives one traced session over a real daemon
// whose answer is cut by the budget mid-character, so its done line
// carries a context ending in half a character and the daemon's two span
// records with their attributes. The terminal chunk and the span records
// the client adopts — read by the scanner — must be what encoding/json
// reads off the same line.
func TestDoneLineOverTheHop(t *testing.T) {
	ds := truthfulqa.Generate(817, 1)
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(ds)})
	defer engine.Close()
	var tp tap
	srv := httptest.NewServer(tp.wrap(NewServer(engine)))
	defer srv.Close()
	client := New(srv.URL, WithHTTPClient(srv.Client()))

	const prompt = "What is the capital of Brazil?"
	tok := engine.Tokenizer()
	for _, model := range []string{llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2} {
		whole, err := engine.GenerateChunk(context.Background(), llm.ChunkRequest{Model: model, Prompt: prompt})
		if err != nil {
			t.Fatal(err)
		}
		budget := 0
		var prefix []byte
		for i, id := range whole.Context {
			if prefix = append(prefix, tok.DecodeOne(tokenizer.Token(id))...); !utf8.Valid(prefix) {
				budget = i + 1
				break
			}
		}
		if budget == 0 {
			continue // this model answers in ASCII
		}

		ctx, root := telemetry.NewTracer("llmms").StartRoot(context.Background(), "query")
		root.Hold()
		defer root.Release()
		st, err := client.OpenStream(ctx, llm.ChunkRequest{Model: model, Prompt: prompt, MaxTokens: budget})
		if err != nil {
			t.Fatal(err)
		}
		last, err := st.Next(ctx, 0)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !last.Done || last.DoneReason != llm.DoneLength || utf8.ValidString(last.Text) || len(last.Context) != budget {
			t.Fatalf("%s: terminal chunk %+v (%q), want one cut mid-character after %d tokens", model, last, last.Text, budget)
		}

		_, response := tp.last(t)
		lines := bytes.Split(bytes.TrimSpace(response), []byte("\n"))
		done := lines[len(lines)-1]
		var gr GenerateResponse
		if err := json.Unmarshal(done, &gr); err != nil {
			t.Fatalf("%s: done line %s: %v", model, done, err)
		}
		if !gr.Done || len(gr.Spans) != 2 || len(gr.Spans[0].Attrs) == 0 || len(gr.Spans[1].Attrs) == 0 {
			t.Fatalf("%s: done line %s, want two span records with attributes", model, done)
		}
		var sl streamLine
		if !sl.decode(done) {
			t.Fatalf("%s: the scanner declined the daemon's done line %s", model, done)
		}
		if !equalInts(sl.context, gr.Context) || sl.evalCount != gr.EvalCount || string(sl.doneReason) != gr.DoneReason {
			t.Fatalf("%s: scanner read %+v, encoding/json %+v", model, sl, gr)
		}
		if want := (llm.Chunk{Done: true, DoneReason: llm.DoneReason(gr.DoneReason), Context: gr.Context,
			EvalCount: gr.EvalCount, TotalTokens: len(gr.Context), Text: last.Text}); !reflect.DeepEqual(last, want) {
			t.Fatalf("%s: terminal chunk %+v, the done line says %+v", model, last, want)
		}
		var adopted []telemetry.SpanRecord
		for _, r := range root.Records() {
			if r.Service == "modeld" {
				adopted = append(adopted, r)
			}
		}
		if !reflect.DeepEqual(adopted, gr.Spans) {
			t.Fatalf("%s: client adopted %+v, encoding/json reads %+v off the done line", model, adopted, gr.Spans)
		}
		doneLineOverTheCap(t)
		return
	}
	t.Fatal("no model answers with a multi-byte character")
}

// doneLineOverTheCap is the 600-span case: a daemon answers a traced
// session with a done line carrying 600 records of the caller's trace. The
// client keeps what fits under the trace's span cap, counts the rest, and
// the session ends as it would have.
func doneLineOverTheCap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tid, _, ok := telemetry.ParseTraceparent(r.Header.Get("Traceparent"))
		if !ok {
			t.Errorf("no traceparent on the session's request")
		}
		fmt.Fprintln(w, `{"model":"m","response":"ok go","done":false,"tokens":[7,8],"token_ends":[2,5]}`)
		w.Write(bytes.ReplaceAll(manySpansLine(600), []byte(testTraceID), []byte(tid)))
	}))
	defer srv.Close()
	ctx, root := telemetry.NewTracer("llmms").StartRoot(context.Background(), "query")
	root.Hold()
	defer root.Release()
	st, err := New(srv.URL, WithHTTPClient(srv.Client())).OpenStream(ctx, llm.ChunkRequest{Model: "m", Prompt: "q", MaxTokens: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, err := st.Next(ctx, 0); err != nil || got.Text != "ok go" || !got.Done || got.DoneReason != llm.DoneStop {
		t.Fatalf("session = %+v, %v; want \"ok go\" and a stop", got, err)
	}
	root.End(nil)
	var recs []telemetry.SpanRecord
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		// The pump ends the stream span a moment after the terminal chunk.
		if recs = root.Records(); len(recs) == telemetry.MaxSpansPerTrace {
			break
		}
	}
	if len(recs) != telemetry.MaxSpansPerTrace {
		t.Fatalf("trace holds %d spans, want the cap %d", len(recs), telemetry.MaxSpansPerTrace)
	}
	for _, r := range recs {
		// 600 records, 510 slots beside the query and the stream span.
		if r.Name == "query" && r.Attrs["dropped_spans"] != "90" {
			t.Fatalf("root attrs %v, want dropped_spans 90", r.Attrs)
		}
	}
}

// TestDoneLineWithForeignKeyFallsBack checks a done line the scanner
// declines — here one carrying Ollama's timing members — still ends the
// session correctly through encoding/json.
func TestDoneLineWithForeignKeyFallsBack(t *testing.T) {
	done := `{"model":"m","created_at":"2026-10-02T21:26:38Z","response":"","done":true,"done_reason":"stop",` +
		`"context":[7,8],"total_duration":4883583458,"eval_count":2,"eval_duration":4709213000}`
	var sl streamLine
	if sl.decode([]byte(done)) {
		t.Fatal("the scanner accepted a done line with members it does not know")
	}
	c := scriptedDaemon(t, `{"model":"m","response":"ok go","done":false,"tokens":[7,8],"token_ends":[2,5]}`, done)
	st, err := c.OpenStream(context.Background(), llm.ChunkRequest{Model: "m", Prompt: "q", MaxTokens: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.Next(context.Background(), 0)
	want := llm.Chunk{Text: "ok go", Done: true, DoneReason: llm.DoneStop, Context: []int{7, 8}, EvalCount: 2, TotalTokens: 2}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("session = %+v, %v; want %+v", got, err, want)
	}
}

// TestRequestBodyOverTheHop captures the bodies the client's generation
// entry points send — and generateLines, which posts through the same
// encoder — and holds them to the json.Marshal they used to be: each
// unmarshals to the same GenerateRequest, whatever is in the prompt.
func TestRequestBodyOverTheHop(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	defer engine.Close()
	var tp tap
	srv := httptest.NewServer(tp.wrap(NewServer(engine)))
	defer srv.Close()
	client := New(srv.URL, WithHTTPClient(srv.Client()))

	for _, prompt := range []string{
		"Are bats blind?",
		"quotes \"and\" back\\slashes,\n\tnewlines and tabs <html> &c",
		"line\u2028and paragraph\u2029separators in Brasília",
		"invalid \xc3 UTF-8 \xff",
	} {
		req := llm.ChunkRequest{Model: llm.ModelMistral, Prompt: prompt, MaxTokens: 4, Cont: []int{1, 2, 3}}
		wire := GenerateRequest{Model: req.Model, Prompt: req.Prompt, Context: req.Cont}
		wire.Options.NumPredict, wire.Options.StreamTokens = req.MaxTokens, true
		ref, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		var want GenerateRequest
		if err := json.Unmarshal(ref, &want); err != nil {
			t.Fatal(err)
		}
		check := func(entry string) {
			t.Helper()
			body, _ := tp.last(t)
			var got GenerateRequest
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("%s sent %s: %v", entry, body, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s sent %s\n = %+v, want %+v", entry, body, got, want)
			}
		}

		st, err := client.OpenStream(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Next(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		st.Close()
		check("OpenStream")
		if _, err := client.GenerateChunk(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		check("GenerateChunk")
		if err := generateLines(client, wire, func(GenerateResponse) {}); err != nil {
			t.Fatal(err)
		}
		check("Generate")
	}
}

// TestRequestBodyCap checks the daemon reads request bodies through its
// cap: one byte over is refused with 413 in the error envelope before any
// generation starts, on every endpoint that takes a body; a body of
// exactly the cap is served.
func TestRequestBodyCap(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	defer engine.Close()
	srv := httptest.NewServer(NewServer(engine))
	defer srv.Close()

	// JSON may be padded with white space: a valid request of any size.
	padded := func(request string, size int) io.Reader {
		return strings.NewReader(request[:len(request)-1] + strings.Repeat(" ", size-len(request)) + "}")
	}
	post := func(path string, body io.Reader) (int, string) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(text)
	}
	requests := map[string]string{
		"/api/generate": `{"model":"mistral:7b","prompt":"Are bats blind?","stream":false}`,
		"/api/embed":    `{"model":"mxbai-embed-large","input":"bats"}`,
		"/api/show":     `{"model":"mistral:7b"}`,
	}
	for path, request := range requests {
		before, err := engine.Stats(llm.ModelMistral)
		if err != nil {
			t.Fatal(err)
		}
		status, body := post(path, padded(request, maxScanLine+1))
		var eb errorBody
		if status != http.StatusRequestEntityTooLarge || json.Unmarshal([]byte(body), &eb) != nil || eb.Error == "" {
			t.Fatalf("%s one byte over the cap: %d %s, want 413 in the error envelope", path, status, body)
		}
		if after, _ := engine.Stats(llm.ModelMistral); after.Requests != before.Requests {
			t.Fatalf("%s: an over-cap body started a generation (%d requests, then %d)", path, before.Requests, after.Requests)
		}
		if status, body := post(path, padded(request, maxScanLine)); status != http.StatusOK {
			t.Fatalf("%s exactly at the cap: %d %s, want 200", path, status, body)
		}
	}
	if st, _ := engine.Stats(llm.ModelMistral); st.Requests != 1 {
		t.Fatalf("%d generations ran, want the one at-cap one", st.Requests)
	}
	// An outsized buffer is not pooled: whatever the pool hands out next is
	// of ordinary size.
	for i := 0; i < 8; i++ {
		rb := requestBufPool.Get().(*requestBuf)
		if cap(rb.body) > maxPooledBody {
			t.Fatalf("the pool kept a %d-byte body buffer", cap(rb.body))
		}
		defer rb.release()
	}
}
