package llm

import (
	"context"
	"testing"
)

// chunkOnly is a wrapper that decorates GenerateChunk and nothing else —
// the exact shape that used to strip streaming from the stack.
type chunkOnly struct{ inner Backend }

func (c chunkOnly) GenerateChunk(ctx context.Context, req ChunkRequest) (Chunk, error) {
	return c.inner.GenerateChunk(ctx, req)
}

// passThrough declares stream pass-through via Wrapper.
type passThrough struct{ chunkOnly }

func (p passThrough) Unwrap() Backend { return p.inner }

func TestAsStreamingDirect(t *testing.T) {
	e := NewEngine(Options{})
	sb, ok := AsStreaming(e)
	if !ok || sb == nil {
		t.Fatal("engine should resolve as streaming")
	}
}

func TestAsStreamingStrippedWithoutUnwrap(t *testing.T) {
	e := NewEngine(Options{})
	if _, ok := AsStreaming(chunkOnly{inner: e}); ok {
		t.Fatal("a wrapper without Unwrap or OpenStream must not stream")
	}
}

func TestAsStreamingFollowsUnwrapChain(t *testing.T) {
	e := NewEngine(Options{})
	b := passThrough{chunkOnly{inner: passThrough{chunkOnly{inner: e}}}}
	sb, ok := AsStreaming(b)
	if !ok {
		t.Fatal("Unwrap chain should resolve to the engine's streaming capability")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := sb.OpenStream(ctx, ChunkRequest{
		Model: ModelLlama3, Prompt: "Question: hi?\nAnswer:", MaxTokens: 8,
	})
	if err != nil {
		t.Fatalf("OpenStream through the chain: %v", err)
	}
	st.Close()
}

func TestAsStreamingNil(t *testing.T) {
	if _, ok := AsStreaming(nil); ok {
		t.Fatal("nil backend cannot stream")
	}
}
