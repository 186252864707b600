package llm

import (
	"context"
	"slices"
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

// FuzzLiftedSession holds the lift to its reference: a session Sessions
// lifts from Engine.GenerateChunk must hand out, drain for drain, what the
// engine's own stream does — the same text, counts, end, reason and
// continuation — for any model, prompt, continuation and run of takes,
// and one drain past the end.
func FuzzLiftedSession(f *testing.F) {
	e := NewEngine(Options{})
	f.Cleanup(func() { e.Close() })
	models := e.Profiles()
	f.Add(uint8(0), "Question: Are bats blind?\nAnswer:", uint8(0), uint16(0), []byte{4, 4, 4, 4})
	f.Add(uint8(1), "Question: What is the capital of Brazil?\nAnswer:", uint8(3), uint16(9), []byte{1, 0, 2})
	f.Add(uint8(2), "Question: What happens if you swallow gum?\nAnswer:", uint8(7), uint16(20), []byte{16, 16, 16, 16, 16})
	f.Add(uint8(0), "", uint8(0), uint16(1), []byte{0})
	f.Fuzz(func(t *testing.T, model uint8, prompt string, cont uint8, budget uint16, takes []byte) {
		req := ChunkRequest{
			Model:     models[int(model)%len(models)].Name,
			Prompt:    prompt,
			MaxTokens: int(budget % 96),
			Cont:      make([]int, cont%64),
		}
		ctx := context.Background()
		want, err := e.OpenStream(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		defer want.Close()
		got, err := Sessions(chunkOnly{inner: e}).OpenStream(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		defer got.Close()
		over := false
		for i, take := range takes {
			n := int(take%24) - 2 // <= 0 drains the rest
			w, werr := want.Next(ctx, n)
			g, gerr := got.Next(ctx, n)
			if werr != nil || gerr != nil {
				t.Fatalf("drain %d of %d: stream err %v, lifted err %v", i, n, werr, gerr)
			}
			if g.Text != w.Text || g.EvalCount != w.EvalCount || g.Done != w.Done || g.DoneReason != w.DoneReason ||
				!slices.Equal(g.Context, w.Context) || g.TotalTokens != w.TotalTokens {
				t.Fatalf("drain %d of %d: lifted %+v, stream %+v", i, n, g, w)
			}
			if over {
				return
			}
			over = w.Done
		}
	})
}
