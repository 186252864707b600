package modeld

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"llmms/internal/llm"
	"llmms/internal/tokenizer"
	"llmms/internal/truthfulqa"
)

// multibyteDaemon serves the benchmark's knowledge base, whose capital
// and currency families answer with Brasília, Kraków, złoty, Malmö and
// São Paulo — every one split across tokens mid-character by the
// byte-level BPE. It returns the questions of those items.
func multibyteDaemon(t *testing.T, latencyScale float64) (*Client, *llm.Engine, []string) {
	t.Helper()
	ds := truthfulqa.Generate(817, 1)
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(ds), LatencyScale: latencyScale})
	srv := httptest.NewServer(NewServer(engine))
	t.Cleanup(srv.Close)
	var questions []string
	for _, it := range ds {
		answers := append(append([]string{it.BestAnswer}, it.CorrectAnswers...), it.IncorrectAnswers...)
		if strings.IndexFunc(strings.Join(answers, ""), func(r rune) bool { return r >= utf8.RuneSelf }) >= 0 {
			questions = append(questions, it.Question)
		}
	}
	if len(questions) < 4 {
		t.Fatalf("only %d questions with multi-byte answers in the dataset", len(questions))
	}
	return New(srv.URL, WithHTTPClient(srv.Client())), engine, questions
}

// drainSession opens one stream and drains it take tokens at a time. The
// slice that takes a model's last token is the terminal one on either side
// of the hop, however the timing fell.
func drainSession(t *testing.T, sb llm.StreamingBackend, req llm.ChunkRequest, take int) []llm.Chunk {
	t.Helper()
	st, err := sb.OpenStream(context.Background(), req)
	if err != nil {
		t.Fatalf("open %s %q: %v", req.Model, req.Prompt, err)
	}
	defer st.Close()
	var out []llm.Chunk
	for {
		c, err := st.Next(context.Background(), take)
		if err != nil {
			t.Fatalf("next %s %q after %d slices: %v", req.Model, req.Prompt, len(out), err)
		}
		out = append(out, c)
		if c.Done {
			return out
		}
	}
}

// TestWireSessionMatchesEngine is the byte-transparency differential: a
// generation session driven through Client → daemon returns, slice for
// slice, the same Text bytes, EvalCount, Context ids and DoneReason as
// the same session on the in-process engine — unpaced, where the daemon
// batches many tokens into a line, and paced, where every token (every
// half character) is its own line; with a budget that ends the stream
// mid-character and a reopen from that continuation; and likewise for
// the per-round GenerateChunk path.
func TestWireSessionMatchesEngine(t *testing.T) {
	for _, mode := range []struct {
		name  string
		scale float64
	}{{"unpaced", 0}, {"paced", 0.01}} {
		t.Run(mode.name, func(t *testing.T) {
			client, engine, questions := multibyteDaemon(t, mode.scale)
			_, unpaced, _ := multibyteDaemon(t, 0) // plans the same answers, without the sleeps
			prompts := append([]string{"Are bats blind?"}, questions...)
			multibyte, splitSlices := 0, 0
			for _, prompt := range prompts {
				for _, model := range []string{llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2} {
					ctx := context.Background()
					full, err := unpaced.GenerateChunk(ctx, llm.ChunkRequest{Model: model, Prompt: prompt})
					if err != nil {
						t.Fatal(err)
					}
					if !utf8.ValidString(full.Text) {
						t.Fatalf("%s %q: whole answer is not valid UTF-8: %q", model, prompt, full.Text)
					}
					if mode.scale > 0 && (multibyte >= 3 || len(full.Text) == utf8.RuneCountInString(full.Text)) {
						continue // paced decode sleeps: three split answers keep tier-1 quick
					}
					// The budget that cuts the answer inside its first
					// multi-byte character, or 5 tokens for ASCII answers.
					budget, tok := 5, engine.Tokenizer()
					var prefix []byte
					for i, id := range full.Context {
						prefix = append(prefix, tok.DecodeOne(tokenizer.Token(id))...)
						if !utf8.Valid(prefix) {
							budget = i + 1
							multibyte++
							break
						}
					}

					first := llm.ChunkRequest{Model: model, Prompt: prompt, MaxTokens: budget}
					want := drainSession(t, engine, first, 3)
					got := drainSession(t, client, first, 3)
					last := want[len(want)-1]
					rest := llm.ChunkRequest{Model: model, Prompt: prompt, MaxTokens: 4096, Cont: last.Context}
					want = append(want, drainSession(t, engine, rest, 4)...)
					got = append(got, drainSession(t, client, rest, 4)...)
					for i := range want {
						if i >= len(got) {
							break
						}
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("%s %q: slice %d over the wire diverged from the engine\n got %q %+v\nwant %q %+v",
								model, prompt, i, got[i].Text, got[i], want[i].Text, want[i])
						}
					}
					if len(got) != len(want) {
						t.Fatalf("%s %q: %d slices over the wire, %d on the engine", model, prompt, len(got), len(want))
					}
					var text strings.Builder
					for _, c := range got {
						text.WriteString(c.Text)
						if !utf8.ValidString(c.Text) {
							splitSlices++
						}
					}
					if text.String() != full.Text {
						t.Fatalf("%s %q: slices join to %q, want %q", model, prompt, text.String(), full.Text)
					}

					for _, req := range []llm.ChunkRequest{first, rest} {
						want, err := engine.GenerateChunk(ctx, req)
						if err != nil {
							t.Fatal(err)
						}
						got, err := client.GenerateChunk(ctx, req)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %q: GenerateChunk over the wire = %+v, engine %+v", model, prompt, got, want)
						}
					}
				}
			}
			if multibyte == 0 || splitSlices == 0 {
				t.Fatalf("no answer exercised a split character (%d multi-byte answers, %d slices cut mid-character)", multibyte, splitSlices)
			}
		})
	}
}

// TestOllamaShapedLinesKeepCharactersWhole checks the lines a client
// without the token extension receives — /api/generate without
// stream_tokens — never carry half a character, paced (a token per
// drain) or not, and join to the engine's answer.
func TestOllamaShapedLinesKeepCharactersWhole(t *testing.T) {
	for _, scale := range []float64{0, 0.01} {
		client, engine, questions := multibyteDaemon(t, scale)
		if scale > 0 {
			questions = questions[:3] // decode sleeps; keep tier-1 quick
		}
		checked := 0
		for _, q := range questions {
			for _, model := range []string{llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2} {
				whole, err := engine.GenerateChunk(context.Background(), llm.ChunkRequest{Model: model, Prompt: q})
				if err != nil {
					t.Fatal(err)
				}
				if len(whole.Text) == utf8.RuneCountInString(whole.Text) {
					continue // this model's answer is plain ASCII
				}
				checked++
				var joined strings.Builder
				err = generateLines(client, GenerateRequest{Model: model, Prompt: q}, func(gr GenerateResponse) {
					if strings.ContainsRune(gr.Response, utf8.RuneError) || gr.ResponseRaw != nil || gr.Tokens != nil {
						t.Errorf("%s %q: Ollama-shaped line %+v", model, q, gr)
					}
					joined.WriteString(gr.Response)
				})
				if err != nil {
					t.Fatal(err)
				}
				if joined.String() != whole.Text {
					t.Fatalf("%s %q: generate lines join to %q, want %q", model, q, joined.String(), whole.Text)
				}
			}
		}
		if checked == 0 {
			t.Fatal("no multi-byte answer was checked")
		}
	}
}

// scriptedDaemon answers every request with the given NDJSON lines.
func scriptedDaemon(t *testing.T, lines ...string) *Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, l := range lines {
			io.WriteString(w, l+"\n")
		}
	}))
	t.Cleanup(srv.Close)
	return New(srv.URL, WithHTTPClient(srv.Client()))
}

// TestStreamRefusesDaemonWithoutTokenIDs checks a daemon that ignores
// stream_tokens (a stock Ollama) is reported as stream-unsupported
// before any text is handed out, so the per-round fallback duplicates
// nothing.
func TestStreamRefusesDaemonWithoutTokenIDs(t *testing.T) {
	c := scriptedDaemon(t,
		`{"model":"m","response":"Hello","done":false}`,
		`{"model":"m","response":" world","done":false}`,
		`{"model":"m","response":"","done":true,"done_reason":"stop","context":[1,2],"eval_count":2}`)
	st, err := c.OpenStream(context.Background(), llm.ChunkRequest{Model: "m", Prompt: "q", MaxTokens: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if chunk, err := st.Next(context.Background(), 1); !errors.Is(err, llm.ErrStreamUnsupported) {
		t.Fatalf("Next = %+v, %v; want ErrStreamUnsupported and no text", chunk, err)
	}
}

// TestStreamRejectsInconsistentLines checks a token line whose ids and
// text cannot be matched up fails the stream: what was buffered before
// it drains normally, none of the bad line's text is ever handed out.
func TestStreamRejectsInconsistentLines(t *testing.T) {
	good := `{"model":"m","response":"ok ","done":false,"tokens":[7]}`
	for name, bad := range map[string]string{
		"ends do not reach the text":  `{"model":"m","response":"BAD!","done":false,"tokens":[8,9],"token_ends":[1,2]}`,
		"ends decrease":               `{"model":"m","response":"BAD!","done":false,"tokens":[8,9,10],"token_ends":[3,2,4]}`,
		"fewer ends than tokens":      `{"model":"m","response":"BAD!","done":false,"tokens":[8,9,10],"token_ends":[2,4]}`,
		"two tokens and no ends":      `{"model":"m","response":"BAD!","done":false,"tokens":[8,9]}`,
		"response_raw is not base64":  `{"model":"m","response":"BAD!","done":false,"tokens":[8],"response_raw":"%%%"}`,
		"ends refer to raw, not text": `{"model":"m","response":"BAD!","done":false,"tokens":[8,9],"token_ends":[2,4],"response_raw":"QkFE"}`,
		"not JSON":                    `{"model":"m","response":"BAD!`,
	} {
		c := scriptedDaemon(t, good, bad,
			`{"model":"m","response":"","done":true,"done_reason":"stop","context":[7,8,9],"eval_count":3}`)
		st, err := c.OpenStream(context.Background(), llm.ChunkRequest{Model: "m", Prompt: "q", MaxTokens: 8})
		if err != nil {
			t.Fatal(err)
		}
		chunk, err := st.Next(context.Background(), 4)
		if err != nil || chunk.Text != "ok " || chunk.EvalCount != 1 || chunk.Done {
			t.Fatalf("%s: first slice = %+v, %v; want the good token only", name, chunk, err)
		}
		chunk, err = st.Next(context.Background(), 4)
		if err == nil || errors.Is(err, llm.ErrStreamUnsupported) || chunk.Text != "" {
			t.Fatalf("%s: second slice = %+v, %v; want a bad-line failure and no text", name, chunk, err)
		}
		st.Close()
	}
}

// holdDoneLine is a transport that delivers a generation body up to its
// done line at once and the done line only after hold: the widest window
// a reader could have between a model's last token and its end.
type holdDoneLine struct {
	http.RoundTripper
	hold time.Duration
}

func (h holdDoneLine) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := h.RoundTripper.RoundTrip(req)
	if err == nil {
		resp.Body = &heldBody{ReadCloser: resp.Body, hold: h.hold}
	}
	return resp, err
}

type heldBody struct {
	io.ReadCloser
	hold    time.Duration
	pending []byte
	err     error
	held    bool
}

func (b *heldBody) Read(p []byte) (int, error) {
	if len(b.pending) == 0 {
		if b.err != nil {
			return 0, b.err
		}
		buf := make([]byte, 64<<10)
		n, err := b.ReadCloser.Read(buf)
		b.pending, b.err = buf[:n], err
	}
	if i := bytes.Index(b.pending, []byte(`"done":true`)); i >= 0 && !b.held {
		if start := bytes.LastIndexByte(b.pending[:i], '\n') + 1; start > 0 {
			n := copy(p, b.pending[:start])
			b.pending = b.pending[n:]
			return n, nil
		}
		b.held = true
		time.Sleep(b.hold)
	}
	n := copy(p, b.pending)
	b.pending = b.pending[n:]
	if len(b.pending) == 0 && b.err != nil {
		return n, b.err
	}
	return n, nil
}

// TestDrainOfLastTokenSeesTheEnd closes the terminal-slice window over the
// hop: a drain that takes a model's last token reports the model done,
// even when the done line is slow to arrive — the daemon puts the last
// batch on the done line, and the client pushes and finishes it in one
// step, so there is no moment at which the last token is buffered and the
// end is not.
func TestDrainOfLastTokenSeesTheEnd(t *testing.T) {
	engine := llm.NewEngine(llm.Options{})
	t.Cleanup(func() { engine.Close() })
	srv := httptest.NewServer(NewServer(engine))
	t.Cleanup(srv.Close)
	c := New(srv.URL, WithHTTPClient(&http.Client{
		Transport: holdDoneLine{RoundTripper: srv.Client().Transport, hold: 50 * time.Millisecond},
	}))
	for _, budget := range []int{1, 6} {
		req := llm.ChunkRequest{Model: llm.ModelLlama3, Prompt: "Question: Are bats blind?\nAnswer:", MaxTokens: budget}
		st, err := c.OpenStream(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Next(context.Background(), budget)
		st.Close()
		if err != nil || got.EvalCount != budget || !got.Done || got.DoneReason != llm.DoneLength {
			t.Fatalf("budget %d: drain of the last token = %+v, %v; want it done on length", budget, got, err)
		}
	}
}
