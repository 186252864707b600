package fleet

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"llmms/internal/llm"
)

// streamBackend serves a scripted ChunkStream; nil stream with err set
// scripts an open failure.
type streamBackend struct {
	funcBackend
	openErr error
	stream  llm.ChunkStream
}

func (s *streamBackend) OpenStream(ctx context.Context, req llm.ChunkRequest) (llm.ChunkStream, error) {
	if s.openErr != nil {
		return nil, s.openErr
	}
	return s.stream, nil
}

// scriptedStream fails Next after a scripted number of chunks.
type scriptedStream struct {
	left    int
	failErr error
}

func (s *scriptedStream) Next(ctx context.Context, maxTokens int) (llm.Chunk, error) {
	if s.left > 0 {
		s.left--
		return llm.Chunk{Text: "tok", EvalCount: 1}, nil
	}
	if s.failErr != nil {
		return llm.Chunk{}, s.failErr
	}
	return llm.Chunk{Done: true, DoneReason: llm.DoneStop}, nil
}

func (s *scriptedStream) Close() error { return nil }

// TestStreamRoutesThroughFleet opens a real engine-backed stream through
// the pool: the session drains normally, the replica's inflight count
// covers the stream's lifetime (steering P2C away from it), and Close
// releases both the engine session and the slot — the leak check.
func TestStreamRoutesThroughFleet(t *testing.T) {
	e := llm.NewEngine(llm.Options{})
	p := mustPool(t, Config{Replicas: map[string][]Replica{
		llm.ModelLlama3: {{ID: "r0", Backend: e}, {ID: "r1", Backend: e}},
	}})
	sb, ok := llm.AsStreaming(llm.Backend(p))
	if !ok {
		t.Fatal("pool must resolve as a streaming backend")
	}
	st, err := sb.OpenStream(context.Background(), llm.ChunkRequest{
		Model: llm.ModelLlama3, Prompt: "Question: hi?\nAnswer:", MaxTokens: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	inflight := 0
	for _, rs := range p.Status()[0].Replicas {
		inflight += rs.Inflight
	}
	if inflight != 1 {
		t.Fatalf("open stream not reflected in inflight counts: %d", inflight)
	}
	c, err := st.Next(context.Background(), 4)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if c.EvalCount == 0 {
		t.Fatalf("empty drain: %+v", c)
	}
	if _, ok := st.(llm.BufferedStream); !ok {
		t.Fatal("fleet stream must pass Buffered through")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st.Close() // idempotent
	for _, rs := range p.Status()[0].Replicas {
		if rs.Inflight != 0 {
			t.Fatalf("inflight leaked after Close: %+v", rs)
		}
	}
	// The engine's producer goroutine exits asynchronously after Close;
	// give it a moment before calling the session leaked.
	deadline := time.Now().Add(2 * time.Second)
	for e.OpenStreams() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("engine sessions leaked: %d", e.OpenStreams())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamOpenUnsupportedIsNeutral: a replica that cannot stream is a
// routing signal (fall back to chunks), not a breaker failure.
func TestStreamOpenUnsupportedIsNeutral(t *testing.T) {
	p := mustPool(t, Config{Replicas: map[string][]Replica{"m": {{ID: "r0", Backend: okBackend()}}}})
	setBreakers(p, 1, cooldown)
	for i := 0; i < 3; i++ {
		if _, err := p.OpenStream(context.Background(), testReq("m")); !errors.Is(err, llm.ErrStreamUnsupported) {
			t.Fatalf("err = %v, want ErrStreamUnsupported", err)
		}
	}
	if rs := replicaState(t, p, "m", "r0"); rs.State != "serving" {
		t.Fatalf("capability miss tripped the breaker: %+v", rs)
	}
	// The chunk path still works — the fallback the signal points to.
	if _, err := p.GenerateChunk(context.Background(), testReq("m")); err != nil {
		t.Fatal(err)
	}
}

// TestStreamNextUnsupportedIsNeutral: a replica whose stream reports
// that it cannot stream on its first drain — modeld's client finds a
// daemon that does not echo token ids there, not at open — is judged as
// one that says so at open: the session is lifted onto chunk calls, and
// the breaker stays closed for them.
func TestStreamNextUnsupportedIsNeutral(t *testing.T) {
	unsupported := fmt.Errorf("daemon does not echo stream tokens: %w", llm.ErrStreamUnsupported)
	sb := &streamBackend{stream: &scriptedStream{failErr: unsupported}}
	p := mustPool(t, Config{Replicas: map[string][]Replica{"m": {{ID: "r0", Backend: sb}}}})
	setBreakers(p, 1, cooldown)
	for i := 0; i < 3; i++ {
		st, err := p.OpenStream(context.Background(), testReq("m"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Next(context.Background(), 1); !errors.Is(err, llm.ErrStreamUnsupported) {
			t.Fatalf("drain %d: err = %v, want ErrStreamUnsupported", i, err)
		}
		st.Close()
	}
	if rs := replicaState(t, p, "m", "r0"); rs.State != "serving" || rs.ConsecutiveFailures != 0 {
		t.Fatalf("capability miss on a drain fed the breaker: %+v", rs)
	}
	if _, err := p.GenerateChunk(context.Background(), testReq("m")); err != nil {
		t.Fatal(err)
	}
}

// TestStreamOpenFailureFeedsBreaker: a failed open is a real failure
// and counts toward tripping.
func TestStreamOpenFailureFeedsBreaker(t *testing.T) {
	sb := &streamBackend{openErr: errDown}
	p := mustPool(t, Config{Replicas: map[string][]Replica{"m": {{ID: "r0", Backend: sb}}}})
	setBreakers(p, 2, time.Hour)
	installClock(p)
	for i := 0; i < 2; i++ {
		if _, err := p.OpenStream(context.Background(), testReq("m")); !errors.Is(err, errDown) {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	if rs := replicaState(t, p, "m", "r0"); rs.State != "open" {
		t.Fatalf("failed opens did not trip the breaker: %+v", rs)
	}
}

// TestMidStreamFailureFeedsBreakerOnce: a stream that breaks mid-answer
// counts exactly one failure against its replica, however many times the
// caller retries Next.
func TestMidStreamFailureFeedsBreakerOnce(t *testing.T) {
	sb := &streamBackend{stream: &scriptedStream{left: 2, failErr: errDown}}
	p := mustPool(t, Config{Replicas: map[string][]Replica{"m": {{ID: "r0", Backend: sb}}}})
	st, err := p.OpenStream(context.Background(), testReq("m"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 2; i++ {
		if _, err := st.Next(context.Background(), 1); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Next(context.Background(), 1); !errors.Is(err, errDown) {
			t.Fatalf("broken stream returned %v", err)
		}
	}
	if rs := replicaState(t, p, "m", "r0"); rs.ConsecutiveFailures != 1 {
		t.Fatalf("mid-stream failure miscounted: %+v", rs)
	}
}
