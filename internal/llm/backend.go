package llm

import "context"

// This file is the single backend contract the orchestration stack
// resolves against. Historically the repository had two disjoint
// resolutions: core.Backend (GenerateChunk) was the orchestrator's
// declared dependency, while StreamingBackend (OpenStream) was
// discovered separately by a direct type assertion on the concrete
// value. Any wrapper that decorated GenerateChunk but forgot OpenStream
// — a fault injector, a replica pool, an instrumentation shim — then
// silently stripped streaming from the whole stack: queries still
// worked, just on the slow per-round path, with nothing failing
// loudly enough to notice.
//
// The contract collapses to:
//
//   - Backend is the one required capability (GenerateChunk).
//   - Streaming is an optional capability probed with AsStreaming,
//     which follows Unwrap chains so pass-through wrappers cannot strip
//     it by accident.
//   - Wrappers that do not decorate streams implement Wrapper
//     (declaring pass-through).

// Backend produces partial generations — the paper's getChunk(LLM_i, p,
// λ) primitive. Engine, modeld.Client, fleet.Pool, and core.FaultBackend
// all satisfy it; core.Backend is an alias of this interface.
// GenerateChunk generates up to req.MaxTokens more tokens of the model's
// answer to req.Prompt, resuming from req.Cont (nil starts fresh).
//
// Implementations must be safe for concurrent use across models: the
// orchestrator issues one in-flight call per active model during a
// fan-out round.
type Backend interface {
	GenerateChunk(ctx context.Context, req ChunkRequest) (Chunk, error)
}

// Wrapper is implemented by backends that decorate another backend
// without decorating its persistent-stream capability. Unwrap returns
// the wrapped backend so capability probes (AsStreaming) can continue
// the search down the chain. A wrapper that decorates streams itself
// implements StreamingBackend instead (and may additionally implement
// Wrapper — its own OpenStream wins, being found first).
type Wrapper interface {
	Unwrap() Backend
}

// AsStreaming reports whether b can hold persistent generation streams,
// resolving the capability through Unwrap chains: the first backend in
// the chain that implements StreamingBackend is returned. This is the
// ONE way the repository resolves streaming — callers must not type-assert
// StreamingBackend directly, or wrappers will strip the capability.
func AsStreaming(b Backend) (StreamingBackend, bool) {
	for b != nil {
		if sb, ok := b.(StreamingBackend); ok {
			return sb, true
		}
		w, ok := b.(Wrapper)
		if !ok {
			return nil, false
		}
		b = w.Unwrap()
	}
	return nil, false
}
