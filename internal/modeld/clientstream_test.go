package modeld

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"llmms/internal/llm"
	"llmms/internal/telemetry"
	"llmms/internal/tokenizer"
)

// tokenLine is the daemon's line for a batch of tokens.
func tokenLine(text string, ids, ends []int) string { return string(echoLine(text, ids, ends)) }

// endLine is the daemon's done line ending on final, carrying the
// session's last batch.
func endLine(text string, ids, ends []int, final llm.Chunk) string {
	return string(lastBatchLine(text, ids, ends, final, nil))
}

// scriptedSession is a session whose reply is lines, then end (see
// scriptedReply), opened from cont; it is closed at the test's end.
func scriptedSession(t *testing.T, c *Client, lines string, end error, cont []int) (*clientStream, *scriptedBody) {
	t.Helper()
	resp, body, cancel := scriptedReply(lines, end)
	st := c.streamReply(llm.ChunkRequest{Model: "m", Cont: cont}, resp, requestBufPool.Get().(*requestBuf), nil, cancel)
	t.Cleanup(func() { st.Close() })
	return st, body
}

// TestLineReaderPoolBound: a reader's buffer starts at 4 KiB and grows
// only for a line that does not fit it; an outsized line still decodes
// whole, and a reader it grew past maxPooledBody is not pooled, so
// whatever the pool hands out next is of ordinary size.
func TestLineReaderPoolBound(t *testing.T) {
	if n := len(lineReaderPool.New().(*lineReader).buf); n != 4<<10 {
		t.Fatalf("a new reader's buffer holds %d bytes, want 4 KiB", n)
	}
	text := strings.Repeat("x", 2*maxPooledBody)
	st, _ := scriptedSession(t, New("http://modeld"), tokenLine(text, []int{1}, nil)+
		endLine("", nil, nil, llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{1}, EvalCount: 1}), io.EOF, nil)
	if ch, err := st.Next(context.Background(), 0); err != nil || ch.Text != text || !ch.Done {
		t.Fatalf("the outsized line read as %d bytes of text, done %v, %v", len(ch.Text), ch.Done, err)
	}
	if n := len(st.lr.buf); n <= maxPooledBody {
		t.Fatalf("the reader's buffer holds %d bytes after a %d-byte line", n, len(text))
	}
	st.Close()
	for i := 0; i < 8; i++ {
		lr := lineReaderPool.Get().(*lineReader)
		if n := len(lr.buf); n > maxPooledBody {
			t.Fatalf("the pool kept a reader with a %d-byte buffer", n)
		}
		defer lineReaderPool.Put(lr)
	}
}

// TestSessionSlicing drains a session in per-round slices and checks
// token-boundary slicing, continuation synthesis, and the terminal
// chunk's authoritative metadata.
func TestSessionSlicing(t *testing.T) {
	st, _ := scriptedSession(t, New("http://modeld"),
		tokenLine("Hello ", []int{1, 2}, []int{5, 6})+tokenLine("world", []int{3}, nil)+tokenLine("!", []int{4}, nil)+
			endLine("", nil, nil, llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{1, 2, 3, 4}, EvalCount: 4}), io.EOF, nil)
	ctx := context.Background()
	c1, err := st.Next(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Text != "Hello " || c1.EvalCount != 2 {
		t.Fatalf("slice 1 = %q (%d tokens), want \"Hello \" (2)", c1.Text, c1.EvalCount)
	}
	if c1.Done || c1.DoneReason != llm.DoneLength {
		t.Fatalf("non-terminal slice Done=%v reason=%q, want length continuation", c1.Done, c1.DoneReason)
	}
	if !reflect.DeepEqual(c1.Context, []int{1, 2}) {
		t.Fatalf("slice 1 context = %v, want [1 2]", c1.Context)
	}
	grown := append(c1.Context, 99) // the caller's own: the session must not write into it
	c2, err := st.Next(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if grown[2] != 99 {
		t.Fatalf("a caller's append to a slice's context reads %v after the next slice", grown)
	}
	if c2.Text != "world!" || c2.EvalCount != 2 {
		t.Fatalf("slice 2 = %q (%d tokens), want \"world!\" (2)", c2.Text, c2.EvalCount)
	}
	if !c2.Done || c2.DoneReason != llm.DoneStop || len(c2.Context) != 4 {
		t.Fatalf("terminal slice Done=%v reason=%q context %v, want done/stop over 4 ids", c2.Done, c2.DoneReason, c2.Context)
	}
}

// TestSessionSlicesInsideALine checks a round is cut on token boundaries
// even when they fall inside one line: the ask is met exactly, never
// rounded to how the daemon happened to batch its tokens.
func TestSessionSlicesInsideALine(t *testing.T) {
	st, _ := scriptedSession(t, New("http://modeld"),
		tokenLine("abc", []int{1, 2, 3}, []int{1, 2, 3})+tokenLine("de", []int{4, 5}, []int{1, 2})+
			endLine("", nil, nil, llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{1, 2, 3, 4, 5}}), io.EOF, nil)
	for i, want := range []struct {
		text string
		done bool
		ctx  int
	}{{"ab", false, 2}, {"cd", false, 4}, {"e", true, 5}} {
		c, err := st.Next(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if c.Text != want.text || c.EvalCount != len(want.text) || c.Done != want.done || len(c.Context) != want.ctx {
			t.Fatalf("slice %d = %q (%d tokens) done=%v context=%v, want %q done=%v and %d context ids",
				i, c.Text, c.EvalCount, c.Done, c.Context, want.text, want.done, want.ctx)
		}
	}
}

// pipedSession is a session whose reply's lines are written one at a
// time, each write waiting for the session to read it, from a goroutine
// of their own: reads and Nexts interleave however the scheduler has it.
func pipedSession(c *Client, lines []string, cont []int) *clientStream {
	pr, pw := io.Pipe()
	go func() {
		for _, l := range lines {
			if _, err := io.WriteString(pw, l); err != nil {
				return
			}
		}
		pw.Close()
	}()
	req, _ := http.NewRequest(http.MethodPost, "http://modeld/api/generate", nil)
	resp := &http.Response{Body: pr, Request: req}
	return c.streamReply(llm.ChunkRequest{Model: "m", Cont: cont}, resp, requestBufPool.Get().(*requestBuf), nil,
		func() { pr.CloseWithError(context.Canceled) })
}

// TestSessionPartitionInvariance is the token-exact slicing property: for
// a fixed token sequence (multi-byte characters split across tokens
// included), however a seeded partition batches the daemon's lines — the
// last batch riding on the done line, as the daemon writes it — and
// however their arrival interleaves with the Nexts, every Next(take)
// sequence equals the one-token-per-line reference, for several takes.
func TestSessionPartitionInvariance(t *testing.T) {
	tok := tokenizer.Default()
	tokens := tok.Encode("In Brasília the złoty is no legal tender, and neither is it in São Paulo or Malmö.")
	base := []int{7, 8, 9}
	c := New("http://modeld")

	// drainAll drains, take at a time, a session whose lines end at cuts.
	drainAll := func(cuts []int, take int) []llm.Chunk {
		var lines []string
		from := 0
		for i, to := range cuts {
			var batch llm.TokenBatch
			for _, tk := range tokens[from:to] {
				batch.Text = append(batch.Text, tok.DecodeOne(tk)...)
				batch.IDs = append(batch.IDs, int(tk))
				batch.Ends = append(batch.Ends, len(batch.Text))
			}
			if i == len(cuts)-1 {
				lines = append(lines, endLine(string(batch.Text), batch.IDs, batch.Ends, llm.Chunk{Done: true, DoneReason: llm.DoneStop}))
			} else {
				lines = append(lines, tokenLine(string(batch.Text), batch.IDs, batch.Ends))
			}
			from = to
		}
		st := pipedSession(c, lines, base)
		defer st.Close()
		var out []llm.Chunk
		for {
			ch, err := st.Next(context.Background(), take)
			if err != nil {
				t.Fatalf("next(%d): %v", take, err)
			}
			out = append(out, ch)
			if ch.Done {
				return out
			}
		}
	}

	perToken := make([]int, len(tokens))
	for i := range perToken {
		perToken[i] = i + 1
	}
	rng := rand.New(rand.NewSource(17))
	for _, take := range []int{1, 2, 3, 5, 8, len(tokens), 0} {
		ref := drainAll(perToken, take)
		var text strings.Builder
		for _, ch := range ref {
			text.WriteString(ch.Text)
		}
		if text.String() != tok.Decode(tokens) {
			t.Fatalf("take %d: reference text %q, want %q", take, text.String(), tok.Decode(tokens))
		}
		for trial := 0; trial < 20; trial++ {
			var cuts []int
			for i := 1; i < len(tokens); i++ {
				if rng.Intn(4) == 0 {
					cuts = append(cuts, i)
				}
			}
			cuts = append(cuts, len(tokens))
			if got := drainAll(cuts, take); !reflect.DeepEqual(got, ref) {
				t.Fatalf("take %d, cuts %v:\n got %+v\nwant %+v", take, cuts, got, ref)
			}
		}
	}
}

// TestSessionRejectsInconsistentOffsets checks a line whose token ends do
// not partition its text fails the session without any of its text being
// handed out; what was held before it still drains.
func TestSessionRejectsInconsistentOffsets(t *testing.T) {
	for name, bad := range map[string]llm.TokenBatch{
		"fewer ends than ids": {Text: []byte("abcd"), IDs: []int{1, 2, 3}, Ends: []int{2, 4}},
		"more ends than ids":  {Text: []byte("abcd"), IDs: []int{1}, Ends: []int{2, 4}},
		"no ends, two ids":    {Text: []byte("abcd"), IDs: []int{1, 2}},
		"ends short of text":  {Text: []byte("abcd"), IDs: []int{1, 2}, Ends: []int{1, 3}},
		"ends past text":      {Text: []byte("abcd"), IDs: []int{1, 2}, Ends: []int{2, 5}},
		"ends decrease":       {Text: []byte("abcd"), IDs: []int{1, 2, 3}, Ends: []int{3, 2, 4}},
		"negative end":        {Text: []byte("abcd"), IDs: []int{1, 2}, Ends: []int{-1, 4}},
	} {
		line, err := json.Marshal(GenerateResponse{Model: "m", Response: string(bad.Text), Tokens: bad.IDs, TokenEnds: bad.Ends})
		if err != nil {
			t.Fatal(err)
		}
		want := checkBatch(bad.Text, bad.IDs, bad.Ends)
		if want == nil || errors.Is(want, llm.ErrStreamUnsupported) {
			t.Fatalf("%s: checkBatch = %v, want a plain bad-batch error", name, want)
		}
		st, _ := scriptedSession(t, New("http://modeld"), tokenLine("ok", []int{9}, nil)+string(line)+"\n"+
			endLine("", nil, nil, llm.Chunk{Done: true, DoneReason: llm.DoneStop}), io.EOF, nil)
		if c, err := st.Next(context.Background(), 8); err != nil || c.Text != "ok" || c.EvalCount != 1 {
			t.Fatalf("%s: first slice = %q (%d), %v; want the good token only", name, c.Text, c.EvalCount, err)
		}
		if c, err := st.Next(context.Background(), 8); err == nil || err.Error() != want.Error() || c.Text != "" {
			t.Fatalf("%s: second slice = %q, %v; want no text and %v", name, c.Text, err, want)
		}
	}
}

// TestSessionPartialBeforeError checks a session whose reply broke serves
// what it held as a normal partial slice first and only then surfaces the
// error — drained text is never lost to a fallback.
func TestSessionPartialBeforeError(t *testing.T) {
	st, _ := scriptedSession(t, New("http://modeld"), tokenLine("partial", []int{10, 11}, []int{4, 7}), io.ErrUnexpectedEOF, []int{9})
	c, err := st.Next(context.Background(), 8)
	if err != nil {
		t.Fatalf("partial slice errored early: %v", err)
	}
	if c.Text != "partial" || c.EvalCount != 2 || !reflect.DeepEqual(c.Context, []int{9, 10, 11}) {
		t.Fatalf("partial = %q (%d) context %v, want partial (2) over [9 10 11]", c.Text, c.EvalCount, c.Context)
	}
	if _, err := st.Next(context.Background(), 8); !errors.Is(err, io.ErrUnexpectedEOF) || !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("drained-dry error = %v, want a truncation wrapping ErrUnexpectedEOF", err)
	}
}

// TestSessionRejectsIdlessLines checks a daemon that does not attribute
// token ids fails the session BEFORE any text is handed out, so a
// fallback re-generation cannot duplicate text.
func TestSessionRejectsIdlessLines(t *testing.T) {
	st, _ := scriptedSession(t, New("http://modeld"), `{"model":"m","response":"text without ids","done":false}`+"\n", io.EOF, nil)
	if c, err := st.Next(context.Background(), 4); !errors.Is(err, llm.ErrStreamUnsupported) || c.Text != "" {
		t.Fatalf("Next = %q, %v; want no text and ErrStreamUnsupported", c.Text, err)
	}
}

// TestDoneLineCarriesTheLastBatch: the tokens on the done line are held
// and the session finished in one step, so the Next that takes the last
// token is the terminal one; a done line with text and no ids fails the
// session instead.
func TestDoneLineCarriesTheLastBatch(t *testing.T) {
	st, _ := scriptedSession(t, New("http://modeld"), tokenLine("a", []int{1}, nil)+
		endLine("bc", []int{2, 3}, []int{1, 2}, llm.Chunk{Done: true, DoneReason: llm.DoneLength, Context: []int{1, 2, 3}}), io.EOF, nil)
	if c, err := st.Next(context.Background(), 3); err != nil || c.Text != "abc" || !c.Done || c.DoneReason != llm.DoneLength {
		t.Fatalf("the slice of the last token = %+v, %v; want it terminal", c, err)
	}
	bad, _ := scriptedSession(t, New("http://modeld"), `{"model":"m","response":"x","done":true,"done_reason":"stop"}`+"\n", io.EOF, nil)
	if _, err := bad.Next(context.Background(), 1); !errors.Is(err, llm.ErrStreamUnsupported) {
		t.Fatalf("a done line with text and no ids: %v, want ErrStreamUnsupported", err)
	}
}

// TestSessionCloseAndContext checks Close poisons the session, a ctx that
// has ended before a Next returns its error — or what is held, first —
// and leaves the session as it was, and a ctx that ends while Next waits
// on the daemon ends the session with the ctx's error.
func TestSessionCloseAndContext(t *testing.T) {
	c := New("http://modeld")
	closed, _ := scriptedSession(t, c, tokenLine("x", []int{1}, nil), nil, nil)
	closed.Close()
	if _, err := closed.Next(context.Background(), 1); !errors.Is(err, llm.ErrStreamClosed) {
		t.Fatalf("Next after Close = %v, want ErrStreamClosed", err)
	}
	if n := closed.Buffered(); n != 0 {
		t.Fatalf("Buffered after Close = %d, want 0", n)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	st, _ := scriptedSession(t, c, tokenLine("yz", []int{2, 3}, []int{1, 2}), nil, nil)
	if _, err := st.Next(canceled, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next under a canceled ctx with nothing held = %v, want context.Canceled", err)
	}
	if ch, err := st.Next(context.Background(), 1); err != nil || ch.Text != "y" {
		t.Fatalf("Next after the canceled one = %q, %v; want y", ch.Text, err)
	}
	if ch, err := st.Next(canceled, 4); err != nil || ch.Text != "z" {
		t.Fatalf("Next under a canceled ctx with a token held = %q, %v; want the partial z", ch.Text, err)
	}

	waiting, _ := scriptedSession(t, c, tokenLine("w", []int{4}, nil), nil, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if ch, err := waiting.Next(ctx, 2); err != nil || ch.Text != "w" {
		t.Fatalf("Next interrupted with a token held = %q, %v; want the partial w", ch.Text, err)
	}
	if _, err := waiting.Next(context.Background(), 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next after an interrupted read = %v, want the session ended on context.DeadlineExceeded", err)
	}
}

// TestSessionCloseRacesBlockedNext closes sessions from another goroutine
// once their Next holds them, blocked reading a daemon that has sent a
// token and holds the rest, many at once over the hop's own transport: Close ends
// the read, Next returns the token it held or an error, the daemon sees
// the hang-up, and every session counts as canceled. Under -race any
// touch of the session's storage outside its lock is a report.
func TestSessionCloseRacesBlockedNext(t *testing.T) {
	const workers, sessions = 4, 10
	var written sync.Map // by prompt: closed once the session's token is written
	var hungUp sync.WaitGroup
	hungUp.Add(workers * sessions)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req GenerateRequest
		json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, tokenLine("Hel", []int{1}, nil))
		w.(http.Flusher).Flush()
		if ch, ok := written.Load(req.Prompt); ok {
			close(ch.(chan struct{}))
		}
		<-r.Context().Done()
		hungUp.Done()
	}))
	defer srv.Close()
	tel := telemetry.New(telemetry.Options{})
	c := hopClient(srv.URL, newHopTransport(), WithTelemetry(tel))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sessions; i++ {
				prompt, line := fmt.Sprintf("q%d.%d", g, i), make(chan struct{})
				written.Store(prompt, line)
				st, err := c.OpenStream(context.Background(), llm.ChunkRequest{Model: "m", Prompt: prompt, MaxTokens: 8})
				if err != nil {
					t.Error(err)
					return
				}
				next := make(chan error, 1)
				go func() {
					ch, err := st.Next(context.Background(), 2)
					switch {
					case err == nil && (ch.Text != "Hel" || ch.Done):
						err = fmt.Errorf("slice %+v, want the partial Hel", ch)
					case err != nil && outcome(err) != "canceled":
						err = fmt.Errorf("Next = %w, want a canceled session", err)
					default:
						err = nil
					}
					next <- err
				}()
				<-line
				for cs := st.(*clientStream); cs.mu.TryLock(); runtime.Gosched() {
					cs.mu.Unlock() // Next has yet to take the session
				}
				st.Close()
				if err := <-next; err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	hungUp.Wait()
	if got := tel.ClientRequests.Value("generate_stream", "canceled"); got != workers*sessions {
		t.Fatalf("requests{generate_stream,canceled} = %v, want %d", got, workers*sessions)
	}
}

// fold merges an empty terminal slice into the slice before it: whether
// the slice that takes a model's last token or an empty one after it is
// terminal depends on whether the done line had been read when it was
// cut, when a daemon ends its reply with a done line of no tokens.
func fold(out []string, ch llm.Chunk, last *llm.Chunk) []string {
	if ch.Done && ch.EvalCount == 0 && len(out) > 0 && !last.Done {
		ch.Text, ch.EvalCount = last.Text, last.EvalCount
		out = out[:len(out)-1]
	}
	*last = ch
	return append(out, fmt.Sprintf("%+v", ch))
}

// TestSessionMatchesReference holds the client's sessions to the design
// they replaced — a pump goroutine reading the reply into a buffer the
// caller drained — over the same bytes: every seed of FuzzStreamLine as a
// reply of its own and before a done line, a daemon's reply, replies cut
// short, a stock Ollama's, and one closed while the daemon still holds
// the rest. Each is drained several ways; the chunks, the errors and the
// requests' counts must be the same.
func TestSessionMatchesReference(t *testing.T) {
	final := endLine("", nil, nil, llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{1, 2, 3}, EvalCount: 3})
	type reply struct {
		name  string
		lines string
		end   error // nil: the daemon holds the rest of the reply
		held  int   // then: the tokens lines carry, drained before Close
	}
	var replies []reply
	for i, seed := range streamLineSeeds() {
		replies = append(replies,
			reply{name: fmt.Sprintf("seed %d", i), lines: string(seed) + "\n", end: io.EOF},
			reply{name: fmt.Sprintf("seed %d, then done", i), lines: string(seed) + "\n" + final, end: io.EOF})
	}
	replies = append(replies,
		reply{name: "daemon", end: io.EOF, lines: tokenLine("Hel", []int{1}, nil) + tokenLine("lo wor", []int{2, 3, 4}, []int{2, 4, 6}) +
			endLine("ld", []int{5}, nil, llm.Chunk{Done: true, DoneReason: llm.DoneLength, Context: []int{7, 1, 2, 3, 4, 5}, EvalCount: 5})},
		reply{name: "cut short", end: io.ErrUnexpectedEOF, lines: tokenLine("Hel", []int{1}, nil) + tokenLine("lo", []int{2}, nil)},
		reply{name: "ended without a done line", end: io.EOF, lines: tokenLine("Hel", []int{1}, nil)},
		reply{name: "stock Ollama", end: io.EOF, lines: `{"model":"m","created_at":"2026-10-02T21:26:38Z","response":"Hel","done":false}` + "\n" +
			`{"model":"m","created_at":"2026-10-02T21:26:38Z","response":"","done":true,"done_reason":"stop","context":[1],"eval_count":1}` + "\n"},
		reply{name: "closed mid-reply", held: 4, lines: tokenLine("Hel", []int{1}, nil) + tokenLine("lo wor", []int{2, 3, 4}, []int{2, 4, 6})},
	)
	counts := func(tel *telemetry.Telemetry) string {
		var s string
		for _, oc := range []string{"ok", "error", "canceled"} {
			s += fmt.Sprintf("%s=%v ", oc, tel.ClientRequests.Value("generate_stream", oc))
		}
		return s + fmt.Sprintf("truncated=%v", tel.ClientTruncated.Value("m"))
	}
	// A request is settled once it is counted under an outcome, which
	// settle does after the truncation counter.
	settled := func(tel *telemetry.Telemetry) bool {
		return tel.ClientRequests.Value("generate_stream", "ok")+tel.ClientRequests.Value("generate_stream", "error")+
			tel.ClientRequests.Value("generate_stream", "canceled") > 0
	}
	for _, r := range replies {
		for _, take := range []int{1, 2, 3, 0} {
			if r.end == nil && take == 0 {
				continue // a drain of the whole reply would wait for the daemon
			}
			var runs [2]string
			for side := range runs {
				tel := telemetry.New(telemetry.Options{})
				c := New("http://modeld", WithTelemetry(tel))
				resp, body, cancel := scriptedReply(r.lines, r.end)
				req := llm.ChunkRequest{Model: "m", Cont: []int{7}}
				var st llm.ChunkStream
				if side == 0 {
					st = c.pumpReply(req, resp, requestBufPool.Get().(*requestBuf), nil, cancel)
					// Drained once the pump has settled a reply that ended, or has
					// asked for more than the daemon sent.
					for r.end != nil && !settled(tel) {
						time.Sleep(time.Millisecond)
					}
					if r.end == nil {
						<-body.drained
					}
				} else {
					st = c.streamReply(req, resp, requestBufPool.Get().(*requestBuf), nil, cancel)
				}
				var out []string
				var last llm.Chunk
				for n := 0; r.end != nil || n < r.held/take; n++ {
					ch, err := st.Next(context.Background(), take)
					if err != nil {
						out = append(out, "error: "+err.Error())
						break
					}
					if out = fold(out, ch, &last); ch.Done {
						break
					}
				}
				st.Close()
				for deadline := time.Now().Add(5 * time.Second); !settled(tel); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%s, take %d: side %d never settled", r.name, take, side)
					}
				}
				runs[side] = strings.Join(out, "\n") + "\n" + counts(tel)
			}
			if runs[0] != runs[1] {
				t.Errorf("%s, take %d:\nreference %s\nclient    %s", r.name, take, runs[0], runs[1])
			}
		}
	}
}

// TestSessionHoldsNoGoroutine: an open session over the hop holds no
// goroutine of its own — its reply is read by the calls made on it —
// where the reference holds one, its pump.
func TestSessionHoldsNoGoroutine(t *testing.T) {
	const sessions = 4
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, tokenLine("Hel", []int{1}, nil))
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer srv.Close()
	c := hopClient(srv.URL, newHopTransport())
	req := llm.ChunkRequest{Model: "m", Prompt: "q", MaxTokens: 8}
	for _, tc := range []struct {
		name       string
		open       func() (llm.ChunkStream, error)
		perSession int
	}{
		{"client", func() (llm.ChunkStream, error) { return c.OpenStream(context.Background(), req) }, 0},
		{"reference", func() (llm.ChunkStream, error) { return c.openReference(context.Background(), req) }, 1},
	} {
		before := clientGoroutines()
		var open []llm.ChunkStream
		for i := 0; i < sessions; i++ {
			st, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			if ch, err := st.Next(context.Background(), 1); err != nil || ch.Text != "Hel" {
				t.Fatalf("%s: first slice = %q, %v", tc.name, ch.Text, err)
			}
			open = append(open, st)
		}
		want := tc.perSession * sessions
		var added int
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			added = 0
			for id := range clientGoroutines() {
				if !before[id] {
					added++
				}
			}
			if added == want || time.Now().After(deadline) {
				break
			}
		}
		for _, st := range open {
			st.Close()
		}
		if added != want {
			t.Fatalf("%s: %d open sessions hold %d goroutines, want %d", tc.name, sessions, added, want)
		}
	}
}
