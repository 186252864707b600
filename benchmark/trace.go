package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"llmms/internal/llm"
)

// The harness's own spans. The program under test is not changed: the
// harness owns the composition of the stack (sut.go), so in a traced run
// it interposes a wrapper at each layer boundary it can reach from
// outside — the server's handler, the backend the server calls (the
// fleet), each replica's backend (the modeld client), and each daemon's
// handler — and records one span per call. Spans of one request share the
// harness query id, which crosses the loopback hop in a header.

// Span names, one per boundary.
const (
	spanServer = "server.handle"      // wraps *server.Server
	spanFleet  = "fleet.call"         // wraps *fleet.Pool as the server's Backend
	spanClient = "modeld.client_call" // wraps each *modeld.Client as a fleet replica
	spanDaemon = "modeld.handle"      // wraps each *modeld.Server
)

// Headers that carry the harness query id and the calling span across
// HTTP hops. The load generator always sends queryHeader; an untraced SUT
// ignores it.
const (
	queryHeader  = "X-Bench-Query"
	parentHeader = "X-Bench-Parent"
)

// span is one recorded call. Times are nanoseconds since the recorder's
// epoch (one process, one clock).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Query   string `json:"query"`
	Name    string `json:"name"`
	Call    string `json:"call,omitempty"`    // open_stream | next | generate_chunk
	Replica string `json:"replica,omitempty"` // daemon id on client and daemon spans
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"` // response bytes on daemon spans
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// snapshot returns a copy of every finished span.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type spanRefKey struct{}

// spanRef is what a context carries: the harness query id and the span
// that is current at this depth.
type spanRef struct {
	query string
	id    int64
}

// liveSpan is an open span; a nil *liveSpan (no query id in scope, e.g. a
// health probe) ignores end.
type liveSpan struct {
	rec *recorder
	s   span
}

// start opens a child of the span in ctx. Without a query id in ctx it
// records nothing.
func (r *recorder) start(ctx context.Context, name, call, replica string) (context.Context, *liveSpan) {
	ref, ok := ctx.Value(spanRefKey{}).(spanRef)
	if !ok {
		return ctx, nil
	}
	return r.startFrom(ctx, ref, name, call, replica)
}

func (r *recorder) startFrom(ctx context.Context, parent spanRef, name, call, replica string) (context.Context, *liveSpan) {
	ls := &liveSpan{rec: r, s: span{
		ID: r.next.Add(1), Parent: parent.id, Query: parent.query,
		Name: name, Call: call, Replica: replica,
		Start: int64(time.Since(r.epoch)),
	}}
	return context.WithValue(ctx, spanRefKey{}, spanRef{query: parent.query, id: ls.s.ID}), ls
}

func (ls *liveSpan) end() {
	if ls == nil {
		return
	}
	ls.s.End = int64(time.Since(ls.rec.epoch))
	ls.rec.mu.Lock()
	ls.rec.spans = append(ls.rec.spans, ls.s)
	ls.rec.mu.Unlock()
}

// wrapServer records one server.handle span per /api/query request that
// carries a harness query id.
func (r *recorder) wrapServer(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.Header.Get(queryHeader)
		if q == "" || req.URL.Path != "/api/query" {
			h.ServeHTTP(w, req)
			return
		}
		ctx, sp := r.startFrom(req.Context(), spanRef{query: q}, spanServer, "", "")
		h.ServeHTTP(w, req.WithContext(ctx))
		sp.end()
	})
}

// wrapDaemon records one modeld.handle span per daemon request that
// carries a harness query id, with the bytes the daemon wrote.
func (r *recorder) wrapDaemon(id string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.Header.Get(queryHeader)
		if q == "" {
			h.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseInt(req.Header.Get(parentHeader), 10, 64)
		ctx, sp := r.startFrom(req.Context(), spanRef{query: q, id: parent}, spanDaemon, "", id)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, req.WithContext(ctx))
		sp.s.Bytes = cw.n
		sp.end()
	})
}

// countingWriter counts response bytes and keeps streaming working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// headerTripper copies the query id and calling span from the request's
// context into headers, so the daemon's span joins the caller's.
type headerTripper struct{ base http.RoundTripper }

func (t headerTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(spanRefKey{}).(spanRef); ok {
		req = req.Clone(req.Context())
		req.Header.Set(queryHeader, ref.query)
		req.Header.Set(parentHeader, strconv.FormatInt(ref.id, 10))
	}
	return t.base.RoundTrip(req)
}

// tracedBackend records a span around every call into inner: chunk calls,
// stream opens, and each Next on a stream it opened.
type tracedBackend struct {
	rec     *recorder
	name    string
	replica string
	inner   llm.Backend
}

func (b *tracedBackend) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	ctx, sp := b.rec.start(ctx, b.name, "generate_chunk", b.replica)
	defer sp.end()
	return b.inner.GenerateChunk(ctx, req)
}

func (b *tracedBackend) OpenStream(ctx context.Context, req llm.ChunkRequest) (llm.ChunkStream, error) {
	sb, ok := llm.AsStreaming(b.inner)
	if !ok {
		return nil, llm.ErrStreamUnsupported
	}
	ctx, sp := b.rec.start(ctx, b.name, "open_stream", b.replica)
	st, err := sb.OpenStream(ctx, req)
	sp.end()
	if err != nil {
		return nil, err
	}
	return &tracedStream{b: b, inner: st}, nil
}

type tracedStream struct {
	b     *tracedBackend
	inner llm.ChunkStream
}

func (s *tracedStream) Next(ctx context.Context, maxTokens int) (llm.Chunk, error) {
	ctx, sp := s.b.rec.start(ctx, s.b.name, "next", s.b.replica)
	defer sp.end()
	return s.inner.Next(ctx, maxTokens)
}

func (s *tracedStream) Close() error { return s.inner.Close() }

// Buffered keeps the orchestrator's prefetch accounting working through
// the wrapper.
func (s *tracedStream) Buffered() int {
	if b, ok := s.inner.(llm.BufferedStream); ok {
		return b.Buffered()
	}
	return 0
}
