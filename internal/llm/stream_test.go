package llm

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"llmms/internal/tokenizer"
	"llmms/internal/truthfulqa"
)

// TestStreamBufferSlicing drains a finished buffer in per-round slices
// and checks token-boundary slicing, continuation synthesis, and the
// terminal chunk's authoritative metadata.
func TestStreamBufferSlicing(t *testing.T) {
	b := NewStreamBuffer(nil, 0)
	b.Push([]byte("Hello "), []int{1, 2}, []int{5, 6})
	b.Push([]byte("world"), []int{3}, nil)
	b.Push([]byte("!"), []int{4}, []int{1})
	b.Finish(nil, nil, nil, Chunk{Done: true, DoneReason: DoneStop, Context: []int{1, 2, 3, 4}, EvalCount: 4, TotalTokens: 4})

	ctx := context.Background()
	c1, err := b.Drain(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Text != "Hello " || c1.EvalCount != 2 {
		t.Fatalf("slice 1 = %q (%d tokens), want \"Hello \" (2)", c1.Text, c1.EvalCount)
	}
	if c1.Done || c1.DoneReason != DoneLength {
		t.Fatalf("non-terminal slice Done=%v reason=%q, want length continuation", c1.Done, c1.DoneReason)
	}
	if len(c1.Context) != 2 || c1.Context[0] != 1 || c1.Context[1] != 2 {
		t.Fatalf("slice 1 context = %v, want [1 2]", c1.Context)
	}
	c2, err := b.Drain(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Text != "world!" || c2.EvalCount != 2 {
		t.Fatalf("slice 2 = %q (%d tokens), want \"world!\" (2)", c2.Text, c2.EvalCount)
	}
	if !c2.Done || c2.DoneReason != DoneStop {
		t.Fatalf("terminal slice Done=%v reason=%q, want done/stop", c2.Done, c2.DoneReason)
	}
	if len(c2.Context) != 4 {
		t.Fatalf("terminal context = %v, want 4 ids", c2.Context)
	}
}

// TestStreamBufferSlicesInsideABatch checks a round is cut on token
// boundaries even when they fall inside one pushed batch: the ask is
// met exactly, never rounded to how the producer happened to deliver.
func TestStreamBufferSlicesInsideABatch(t *testing.T) {
	b := NewStreamBuffer(nil, 0)
	b.Push([]byte("abc"), []int{1, 2, 3}, []int{1, 2, 3})
	b.Push([]byte("de"), []int{4, 5}, []int{1, 2})
	b.Finish(nil, nil, nil, Chunk{Done: true, DoneReason: DoneStop, Context: []int{1, 2, 3, 4, 5}})

	for i, want := range []struct {
		text string
		done bool
		ctx  int
	}{{"ab", false, 2}, {"cd", false, 4}, {"e", true, 5}} {
		c, err := b.Drain(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if c.Text != want.text || c.EvalCount != len(want.text) || c.Done != want.done || len(c.Context) != want.ctx {
			t.Fatalf("slice %d = %q (%d tokens) done=%v context=%v, want %q done=%v and %d context ids",
				i, c.Text, c.EvalCount, c.Done, c.Context, want.text, want.done, want.ctx)
		}
	}
}

// TestStreamBufferPartitionInvariance is the token-exact slicing
// property: for a fixed token sequence (multi-byte characters split
// across tokens included), however a seeded partition batches the
// pushes — and however they interleave with a concurrently blocked
// Drain — every Drain(take) sequence equals the one-token-per-push
// reference, for several takes.
func TestStreamBufferPartitionInvariance(t *testing.T) {
	tok := tokenizer.Default()
	tokens := tok.Encode("In Brasília the złoty is no legal tender, and neither is it in São Paulo or Malmö.")
	base := []int{7, 8, 9}
	final := Chunk{Done: true, DoneReason: DoneStop}

	// drainAll pushes the tokens in batches ending at cuts from a
	// producer goroutine while the test goroutine drains take at a time.
	drainAll := func(cuts []int, take int) []Chunk {
		b := NewStreamBuffer(base, len(tokens))
		go func() {
			from := 0
			for _, to := range cuts {
				var batch TokenBatch
				for _, tk := range tokens[from:to] {
					batch.Text = append(batch.Text, tok.DecodeOne(tk)...)
					batch.IDs = append(batch.IDs, int(tk))
					batch.Ends = append(batch.Ends, len(batch.Text))
				}
				if err := b.Push(batch.Text, batch.IDs, batch.Ends); err != nil {
					t.Errorf("push %d:%d: %v", from, to, err)
				}
				from = to
			}
			b.Finish(nil, nil, nil, final)
		}()
		var out []Chunk
		for {
			c, err := b.Drain(context.Background(), take)
			if err != nil {
				t.Fatalf("drain(%d): %v", take, err)
			}
			// When the tokens run out exactly at a slice's end, whether
			// that slice already carries Done or an empty terminal slice
			// follows depends on whether Finish had happened by then —
			// the one thing timing may decide. Fold the empty one in.
			if c.Done && c.EvalCount == 0 && len(out) > 0 {
				c.Text, c.EvalCount = out[len(out)-1].Text, out[len(out)-1].EvalCount
				out = out[:len(out)-1]
			}
			out = append(out, c)
			if c.Done {
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
		for _, c := range ref {
			text.WriteString(c.Text)
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

// TestStreamBufferRejectsInconsistentOffsets checks a batch whose token
// ends do not partition its text fails the stream without any of its
// text being handed out; what was buffered before it still drains.
func TestStreamBufferRejectsInconsistentOffsets(t *testing.T) {
	for name, bad := range map[string]TokenBatch{
		"fewer ends than ids": {Text: []byte("abcd"), IDs: []int{1, 2, 3}, Ends: []int{2, 4}},
		"more ends than ids":  {Text: []byte("abcd"), IDs: []int{1}, Ends: []int{2, 4}},
		"no ends, two ids":    {Text: []byte("abcd"), IDs: []int{1, 2}},
		"ends short of text":  {Text: []byte("abcd"), IDs: []int{1, 2}, Ends: []int{1, 3}},
		"ends past text":      {Text: []byte("abcd"), IDs: []int{1, 2}, Ends: []int{2, 5}},
		"ends decrease":       {Text: []byte("abcd"), IDs: []int{1, 2, 3}, Ends: []int{3, 2, 4}},
		"negative end":        {Text: []byte("abcd"), IDs: []int{1, 2}, Ends: []int{-1, 4}},
	} {
		b := NewStreamBuffer(nil, 0)
		if err := b.Push([]byte("ok"), []int{9}, nil); err != nil {
			t.Fatalf("%s: good push: %v", name, err)
		}
		err := b.Push(bad.Text, bad.IDs, bad.Ends)
		if err == nil || errors.Is(err, ErrStreamUnsupported) {
			t.Fatalf("%s: Push err = %v, want a plain bad-batch error", name, err)
		}
		if c, derr := b.Drain(context.Background(), 8); derr != nil || c.Text != "ok" || c.EvalCount != 1 {
			t.Fatalf("%s: first drain = %q (%d), %v; want the good token only", name, c.Text, c.EvalCount, derr)
		}
		if _, derr := b.Drain(context.Background(), 8); derr == nil || derr.Error() != err.Error() {
			t.Fatalf("%s: second drain err = %v, want %v", name, derr, err)
		}
	}
}

// TestStreamBufferPartialBeforeError checks a failed stream serves what
// it buffered as a normal partial slice first and only then surfaces
// the error — drained text is never lost to a fallback.
func TestStreamBufferPartialBeforeError(t *testing.T) {
	b := NewStreamBuffer([]int{9}, 2)
	b.Push([]byte("partial"), []int{10, 11}, []int{4, 7})
	b.Fail(io.ErrUnexpectedEOF)

	c, err := b.Drain(context.Background(), 8)
	if err != nil {
		t.Fatalf("partial drain errored early: %v", err)
	}
	if c.Text != "partial" || c.EvalCount != 2 {
		t.Fatalf("partial = %q (%d), want partial (2)", c.Text, c.EvalCount)
	}
	if len(c.Context) != 3 || c.Context[0] != 9 {
		t.Fatalf("partial context = %v, want base 9 + drained ids", c.Context)
	}
	if _, err := b.Drain(context.Background(), 8); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("drained-dry error = %v, want ErrUnexpectedEOF", err)
	}
}

// TestStreamBufferRejectsIdlessPieces checks a producer that cannot
// attribute token ids fails the stream BEFORE any text is handed out,
// so fallback re-generation cannot duplicate text.
func TestStreamBufferRejectsIdlessPieces(t *testing.T) {
	b := NewStreamBuffer(nil, 0)
	if err := b.Push([]byte("text without ids"), nil, nil); !errors.Is(err, ErrStreamUnsupported) {
		t.Fatalf("Push err = %v, want ErrStreamUnsupported", err)
	}
	_, err := b.Drain(context.Background(), 4)
	if err == nil || !errors.Is(err, ErrStreamUnsupported) {
		t.Fatalf("err = %v, want ErrStreamUnsupported", err)
	}
}

// TestStreamBufferCloseAndContext checks Close poisons the buffer — a
// closed buffer refuses tokens and the terminal chunk as well as drains —
// and a ctx cancel with an empty buffer returns the ctx error.
func TestStreamBufferCloseAndContext(t *testing.T) {
	b := NewStreamBuffer(nil, 0)
	b.Push([]byte("x"), []int{1}, nil)
	b.Close()
	if _, err := b.Drain(context.Background(), 1); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("post-close drain err = %v, want ErrStreamClosed", err)
	}
	if err := b.Push([]byte("y"), []int{2}, nil); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("post-close push err = %v, want ErrStreamClosed", err)
	}
	if err := b.Finish(nil, nil, nil, Chunk{Done: true, DoneReason: DoneStop}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("post-close finish err = %v, want ErrStreamClosed", err)
	}

	b2 := NewStreamBuffer(nil, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b2.Drain(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled empty drain err = %v, want context.Canceled", err)
	}
	// With buffered tokens, cancellation still yields the partial first.
	b3 := NewStreamBuffer(nil, 0)
	b3.Push([]byte("y"), []int{2}, nil)
	if c, err := b3.Drain(ctx, 4); err != nil || c.Text != "y" {
		t.Fatalf("canceled partial drain = %q, %v; want y, nil", c.Text, err)
	}
}

// TestStreamBufferCloseRacesProducer closes buffers while their producer
// is still pushing and finishing, many at once so the pooled stores pass
// from one buffer to the next: under -race any touch of a store after it
// went back to the pool is a report, and every slice a consumer drained
// must still be the producer's text.
func TestStreamBufferCloseRacesProducer(t *testing.T) {
	const tokens = 40
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := NewStreamBuffer(nil, tokens)
				go func() {
					for k := 0; k < tokens; k++ {
						if b.Push([]byte{'a' + byte(k%26)}, []int{k}, nil) != nil {
							return
						}
					}
					b.Finish(nil, nil, nil, Chunk{Done: true, DoneReason: DoneStop})
				}()
				var got string
				for n := 0; n < i%7; n++ {
					c, err := b.Drain(context.Background(), 3)
					if err != nil {
						t.Errorf("drain: %v", err)
						return
					}
					got += c.Text
				}
				b.Close()
				for k := range got {
					if got[k] != 'a'+byte(k%26) {
						t.Errorf("drained %q: byte %d is not the producer's", got, k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestEngineStreamMatchesChunkedPath drains an engine stream in
// per-round slices and checks the text, continuation, and done reason
// are token-for-token what the per-round GenerateChunk ladder returns —
// the determinism invariant the orchestrator's pipelined path relies on.
func TestEngineStreamMatchesChunkedPath(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	const prompt = "Are bats blind?"
	const step = 5

	// Reference: the per-round chunked path.
	var refText string
	var cont []int
	var refReasons []DoneReason
	for i := 0; i < 50; i++ {
		c, err := e.GenerateChunk(ctx, ChunkRequest{Model: ModelLlama3, Prompt: prompt, MaxTokens: step, Cont: cont})
		if err != nil {
			t.Fatal(err)
		}
		refText += c.Text
		cont = c.Context
		refReasons = append(refReasons, c.DoneReason)
		if c.DoneReason == DoneStop {
			break
		}
	}

	s, err := e.OpenStream(ctx, ChunkRequest{Model: ModelLlama3, Prompt: prompt, MaxTokens: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var gotText string
	var gotReasons []DoneReason
	for i := 0; i < 50; i++ {
		c, err := s.Next(ctx, step)
		if err != nil {
			t.Fatal(err)
		}
		gotText += c.Text
		gotReasons = append(gotReasons, c.DoneReason)
		if c.Done {
			if c.DoneReason != DoneStop {
				t.Fatalf("terminal reason = %q, want stop", c.DoneReason)
			}
			break
		}
	}
	if gotText != refText {
		t.Fatalf("streamed text %q != chunked text %q", gotText, refText)
	}
	if len(gotReasons) != len(refReasons) {
		t.Fatalf("streamed %d slices, chunked %d", len(gotReasons), len(refReasons))
	}
	for i := range gotReasons {
		if gotReasons[i] != refReasons[i] {
			t.Fatalf("slice %d reason %q != chunked %q", i, gotReasons[i], refReasons[i])
		}
	}
}

// TestEngineStreamContinuationResumes checks a slice's synthesized
// Context is a valid GenerateChunk resume point — the property that
// makes mid-stream fallback lossless.
func TestEngineStreamContinuationResumes(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	const prompt = "Are bats blind?"
	full, _, err := e.GenerateAll(ctx, GenRequest{Model: ModelMistral, Prompt: prompt})
	if err != nil {
		t.Fatal(err)
	}

	s, err := e.OpenStream(ctx, ChunkRequest{Model: ModelMistral, Prompt: prompt, MaxTokens: 4096})
	if err != nil {
		t.Fatal(err)
	}
	head, err := s.Next(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	tail, err := e.GenerateChunk(ctx, ChunkRequest{Model: ModelMistral, Prompt: prompt, Cont: head.Context})
	if err != nil {
		t.Fatal(err)
	}
	if head.Text+tail.Text != full {
		t.Fatalf("stream head + chunked tail = %q, want %q", head.Text+tail.Text, full)
	}
}

// TestEngineOpenStreamsAccounting checks the engine's live-session
// gauge: opens are visible, and both Close and natural completion
// release the session.
func TestEngineOpenStreamsAccounting(t *testing.T) {
	// Paced, so a stream is certainly still producing when it is counted
	// right after the open: unpaced, the whole answer is decoded and the
	// session released in the time it takes to look.
	e := NewEngine(Options{Knowledge: NewKnowledge(truthfulqa.Generate(200, 1)), LatencyScale: 0.02})
	ctx := context.Background()
	s, err := e.OpenStream(ctx, ChunkRequest{Model: ModelLlama3, Prompt: "Are bats blind?", MaxTokens: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.OpenStreams(); got != 1 {
		t.Fatalf("OpenStreams after open = %d, want 1", got)
	}
	if _, err := s.Next(ctx, 0); err != nil { // drain to completion
		t.Fatal(err)
	}
	s.Close()
	waitForStreams(t, e, 0)

	// Close mid-generation must also release the session.
	s2, err := e.OpenStream(ctx, ChunkRequest{Model: ModelQwen2, Prompt: "Are bats blind?", MaxTokens: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Next(ctx, 2); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	waitForStreams(t, e, 0)
	if _, err := s2.Next(ctx, 1); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("post-close Next err = %v, want ErrStreamClosed", err)
	}
}

// waitForStreams polls the engine's session gauge until it reaches want
// (the producer goroutine exits asynchronously after cancel/finish).
func waitForStreams(t *testing.T, e *Engine, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if e.OpenStreams() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("OpenStreams = %d, want %d after wait", e.OpenStreams(), want)
}

// TestFinishCarriesTheLastBatch: the batch Finish carries is buffered and
// the stream finished in one step, so the drain that takes the last token
// is the terminal one; a batch Push would refuse fails the stream instead.
func TestFinishCarriesTheLastBatch(t *testing.T) {
	b := NewStreamBuffer(nil, 0)
	b.Push([]byte("a"), []int{1}, nil)
	if err := b.Finish([]byte("bc"), []int{2, 3}, []int{1, 2}, Chunk{Done: true, DoneReason: DoneLength, Context: []int{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if c, err := b.Drain(context.Background(), 3); err != nil || c.Text != "abc" || !c.Done || c.DoneReason != DoneLength {
		t.Fatalf("drain of the last token = %+v, %v; want it terminal", c, err)
	}
	bad := NewStreamBuffer(nil, 0)
	if err := bad.Finish([]byte("x"), nil, nil, Chunk{Done: true}); !errors.Is(err, ErrStreamUnsupported) {
		t.Fatalf("Finish of a batch without ids = %v, want ErrStreamUnsupported", err)
	}
	if _, err := bad.Drain(context.Background(), 1); !errors.Is(err, ErrStreamUnsupported) {
		t.Fatalf("the refused stream drains %v, want ErrStreamUnsupported", err)
	}
}
