package llm

import (
	"context"
	"errors"
)

// This file defines the persistent generation-session contract: instead
// of issuing one budget-capped generation call per orchestration round
// (re-sending the prompt plus accumulated context and paying stream
// setup and prompt re-ingest every time), a caller opens ONE stream per
// (model, query) and each round merely drains the next λ tokens of it.
// The backend keeps decoding between rounds, so generation overlaps with
// the orchestrator's scoring pass and a round costs "take decoded tokens"
// rather than "set up stream + re-ingest prompt + decode chunk". The
// implementations are the engine's own stream (generation.go) and
// modeld.Client's, which reads the daemon's reply on the caller's
// goroutine.

// ErrStreamUnsupported reports that a backend (or the daemon behind it)
// cannot serve persistent generation streams. Sessions lifts such a
// session onto GenerateChunk; the error is a routing signal, not a
// failure of the query.
var ErrStreamUnsupported = errors.New("llm: persistent generation streams unsupported")

// ErrStreamClosed reports a Next call on a stream after Close.
var ErrStreamClosed = errors.New("llm: generation stream closed")

// ChunkStream is one model's open generation session for one query.
// Next drains up to maxTokens already-generated (or soon-generated)
// tokens and synthesizes a Chunk with the same bookkeeping contract as
// a GenerateChunk call: Text is the drained slice, EvalCount its token
// count, Context the continuation state covering everything drained so
// far (so a caller can resume via GenerateChunk if the stream later
// breaks), and Done/DoneReason set on the terminal slice. maxTokens <= 0
// drains the whole remainder. Slicing is on token boundaries; Next never
// splits a delivered token.
//
// Next is not safe for concurrent use on one stream; Close may be called
// from any goroutine and aborts backend generation. Streams must be
// closed when abandoned (prune, early return, query end) to free backend
// capacity.
type ChunkStream interface {
	Next(ctx context.Context, maxTokens int) (Chunk, error)
	Close() error
}

// BufferedStream is optionally implemented by ChunkStream
// implementations that can report how many generated-but-undrained
// tokens a Next would take without waiting — the pipelining win a caller
// can observe (tokens for round r+1 already decoded while round r was
// being scored).
type BufferedStream interface {
	Buffered() int
}

// StreamingBackend is implemented by backends that can hold a
// generation stream open across orchestration rounds: the in-process
// Engine and the HTTP modeld.Client. req.MaxTokens caps the whole
// session (the model's total remaining allowance), req.Cont resumes a
// previous generation exactly as in GenerateChunk.
type StreamingBackend interface {
	OpenStream(ctx context.Context, req ChunkRequest) (ChunkStream, error)
}
