package llm

import (
	"context"
	"errors"
	"sync/atomic"
)

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
//   - Sessions is how a caller generates: it hands out b's own streams,
//     and lifts a chunk-only backend (or a session that turns out not to
//     stream) onto GenerateChunk, so the caller has one path.

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

// Sessions returns the one way to generate from b: sessions that are b's
// own when AsStreaming finds them, and otherwise lifted from its
// GenerateChunk, each Next(n) one GenerateChunk of n tokens from the
// session's own continuation, with nothing buffered. An open that reports
// ErrStreamUnsupported gets a lifted session, and so does the rest of a
// session whose drain reports it (a fleet replica that cannot stream, a
// daemon that does not echo token ids). This is the only code that tells a
// chunk-only backend from a streaming one.
func Sessions(b Backend) StreamingBackend {
	sb, _ := AsStreaming(b)
	return sessions{b: b, sb: sb}
}

type sessions struct {
	b  Backend
	sb StreamingBackend // nil when b cannot stream
}

// OpenStream implements StreamingBackend.
func (s sessions) OpenStream(ctx context.Context, req ChunkRequest) (ChunkStream, error) {
	var inner ChunkStream
	if s.sb != nil {
		st, err := s.sb.OpenStream(ctx, req)
		if err != nil && !errors.Is(err, ErrStreamUnsupported) {
			return nil, err
		}
		inner = st
	}
	return &session{inner: inner, lifted: inner == nil, b: s.b, req: req}, nil
}

// session is one session Sessions hands out. req.Cont follows what was
// drained, so a lifted session generates from it; taken counts the tokens
// drained against req.MaxTokens, the session's budget (<= 0: none).
type session struct {
	inner  ChunkStream // the backend's own stream, nil when it had none
	lifted bool        // Next generates by GenerateChunk
	b      Backend
	req    ChunkRequest
	taken  int
	done   bool       // a lifted session handed out its terminal chunk
	reason DoneReason // and this was its reason
	closed atomic.Bool
}

// Next implements ChunkStream.
func (s *session) Next(ctx context.Context, maxTokens int) (Chunk, error) {
	if !s.lifted {
		c, err := s.inner.Next(ctx, maxTokens)
		if !errors.Is(err, ErrStreamUnsupported) {
			if err == nil {
				s.req.Cont, s.taken = c.Context, s.taken+c.EvalCount
			}
			return c, err
		}
		s.inner.Close()
		s.lifted = true
	}
	switch {
	case s.closed.Load():
		return Chunk{}, ErrStreamClosed
	case s.done:
		return Chunk{Done: true, DoneReason: s.reason, Context: s.req.Cont, TotalTokens: len(s.req.Cont)}, nil
	}
	req := s.req
	req.MaxTokens = maxTokens
	if left := s.req.MaxTokens - s.taken; s.req.MaxTokens > 0 && (maxTokens <= 0 || maxTokens > left) {
		req.MaxTokens = left
	}
	c, err := s.b.GenerateChunk(ctx, req)
	if err != nil {
		return Chunk{}, err
	}
	s.req.Cont, s.taken = c.Context, s.taken+c.EvalCount
	// A chunk call ends on length whenever it used its n tokens; the
	// session ends there only when that was the rest of its budget.
	c.Done = c.DoneReason != DoneLength || s.req.MaxTokens > 0 && s.taken >= s.req.MaxTokens
	s.done, s.reason = c.Done, c.DoneReason
	return c, nil
}

// Buffered implements BufferedStream: a lifted session holds nothing.
func (s *session) Buffered() int {
	if bs, ok := s.inner.(BufferedStream); ok && !s.lifted {
		return bs.Buffered()
	}
	return 0
}

// Close implements ChunkStream.
func (s *session) Close() error {
	s.closed.Store(true)
	if s.inner != nil {
		return s.inner.Close()
	}
	return nil
}
