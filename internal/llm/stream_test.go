package llm

import (
	"context"
	"errors"
	"testing"
	"time"

	"llmms/internal/tokenizer"
	"llmms/internal/truthfulqa"
)

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

// TestEngineStreamWaitBoundsOneNext: an engine session opened with a Wait
// bounds each Next that must wait, with one timer it reuses: holding
// nothing, a Next that waits it out returns context.DeadlineExceeded;
// holding less than it asked for, the tokens held; a Next the watermark
// covers does not wait; and a token that arrives within the bound ends
// the wait at once. The generation's producer is the test, which advances
// the watermark by hand.
func TestEngineStreamWaitBoundsOneNext(t *testing.T) {
	const wait = 20 * time.Millisecond
	g := newGeneration(tokenizer.Default(), genPlan{ids: []int{101, 102, 103, 104, 105, 106}, reason: DoneStop}, nil)
	s := &engineStream{gen: g, wait: wait}
	ctx := context.Background()

	start := time.Now()
	if c, err := s.Next(ctx, 2); !errors.Is(err, context.DeadlineExceeded) || c.EvalCount != 0 || time.Since(start) < wait {
		t.Fatalf("nothing decoded: %+v, %v after %v; want context.DeadlineExceeded after %v", c, err, time.Since(start), wait)
	}
	g.advance(1)
	if c, err := s.Next(ctx, 2); err != nil || c.EvalCount != 1 || c.Done {
		t.Fatalf("one of two decoded: %+v, %v; want the one, as a partial slice", c, err)
	}
	g.advance(3)
	start = time.Now()
	if c, err := s.Next(ctx, 2); err != nil || c.EvalCount != 2 || time.Since(start) >= wait {
		t.Fatalf("two decoded: %+v, %v after %v; want both at once", c, err, time.Since(start))
	}
	s.wait = time.Minute
	go func() {
		time.Sleep(wait)
		g.advance(6)
	}()
	if c, err := s.Next(ctx, 3); err != nil || c.EvalCount != 3 || !c.Done {
		t.Fatalf("the rest, decoded while Next waits: %+v, %v; want the terminal slice", c, err)
	}
}
