package telemetry

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceCapacity is the number of completed query traces a Telemetry
// bundle's store retains.
const TraceCapacity = 256

// QueryTrace is one completed orchestrated query: its header — what
// Finish returns, the log line reads and /api/traces lists — and, when
// read back through Get, the span tree rendered from the trace's arena.
// Every duration serializes as integer nanoseconds.
type QueryTrace struct {
	// ID is the generated query identifier (see NewQueryID), also
	// returned to clients in the X-Query-ID header and result frame.
	ID string `json:"id"`
	// TraceID is the distributed trace this query belongs to (32 hex
	// chars, shared with daemon-side spans via traceparent).
	TraceID  string `json:"trace_id,omitempty"`
	Strategy string `json:"strategy"` // the policy that served the query
	// Query is the user's question, truncated to the store's limit (and
	// to summaryQueryLimit in a listing).
	Query   string        `json:"query"`
	Start   time.Time     `json:"start"`      // when orchestration began
	Elapsed time.Duration `json:"elapsed_ns"` // total orchestration wall clock
	// Outcome is "ok", "error", "all_models_failed", or "canceled"; Error
	// the terminal error of a failed query.
	Outcome    string `json:"outcome"`
	Error      string `json:"error,omitempty"`
	Winner     string `json:"winner,omitempty"` // the model whose answer was selected
	TokensUsed int    `json:"tokens_used"`      // generation spend across all models
	// Rounds counts the allocation rounds (OUA rounds, MAB/Hybrid pulls),
	// each a "round" span; Retries the attempts spent beyond first tries.
	Rounds  int `json:"rounds"`
	Retries int `json:"retries"`
	// The failed models and why, and the stream fallbacks, comma-joined over
	// the query, for the log line; the round spans carry them as attributes.
	Failed, FailedReason, Fallback string `json:"-"`
	// SpanCount is how many spans had finished when the query did. A span
	// that ends later — a stream the query abandoned — still joins Spans.
	SpanCount int `json:"span_count"`
	// DroppedSpans counts spans refused at MaxSpansPerTrace, as of the read.
	DroppedSpans int `json:"dropped_spans,omitempty"`
	// Spans is the distributed span tree as of the read: server stages,
	// rounds and chunks with the orchestrator's decisions as attributes,
	// fleet calls, modeld client requests, and grafted daemon-side spans,
	// all sharing TraceID. Reconstruct the tree from ParentID links.
	Spans []SpanRecord `json:"spans,omitempty"`
	// Log is the §9.5 decision log rendered from Spans (DecisionLog).
	Log []string `json:"log,omitempty"`
}

// summaryQueryLimit truncates the query text in listing rows.
const summaryQueryLimit = 120

// TraceStore retains the most recent completed query traces in a
// fixed-capacity ring buffer keyed by query ID: the (capacity+1)-th
// insertion evicts the oldest trace. Safe for concurrent use. Every
// trace offered is stored.
//
// A stored trace is its header plus a hold on its arena, trimmed to the
// blocks and overflow runs its spans use: nothing is copied in, the span
// tree is rendered when someone asks for it, and the arena of an evicted
// trace goes back to the pool.
type TraceStore struct {
	mu       sync.RWMutex
	capacity int
	buf      []storedTrace
	head     int // next write position once full
	count    int
	byID     map[string]int
}

type storedTrace struct {
	QueryTrace
	root *Span // held while stored; nil for a trace without spans
}

// NewTraceStore returns an empty store retaining up to capacity traces;
// capacity must be positive.
func NewTraceStore(capacity int) *TraceStore {
	return &TraceStore{capacity: capacity, byID: make(map[string]int)}
}

// Put stores a completed trace — its header and the root span of its
// arena, nil when it has none — evicting the oldest beyond capacity. A
// trace with an already-stored ID replaces the stored one in place. The
// stored trace is held and trimmed, and the one it displaces released.
func (s *TraceStore) Put(tr QueryTrace, root *Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	root.keep()
	idx, replace := s.byID[tr.ID]
	switch {
	case replace:
	case s.count < s.capacity:
		idx = s.count
		s.buf = append(s.buf, storedTrace{})
		s.count++
		s.head = s.count % s.capacity
	default:
		idx = s.head
		delete(s.byID, s.buf[idx].ID)
		s.head = (s.head + 1) % s.capacity
	}
	s.buf[idx].root.Release()
	s.buf[idx] = storedTrace{tr, root}
	s.byID[tr.ID] = idx
}

// Get returns the trace with the given ID, if it is still retained, with
// its spans and decision log rendered from the arena as it stands now.
func (s *TraceStore) Get(id string) (QueryTrace, bool) {
	s.mu.RLock()
	idx, ok := s.byID[id]
	if !ok {
		s.mu.RUnlock()
		return QueryTrace{}, false
	}
	st := s.buf[idx]
	st.root.Hold() // the ring's own hold could go the moment the lock does
	s.mu.RUnlock()
	defer st.root.Release()
	_, st.DroppedSpans = st.root.counts()
	st.Spans = st.root.Records()
	st.Log = st.DecisionLog()
	return st.QueryTrace, true
}

// List returns up to limit headers, newest first (limit <= 0 means all
// retained traces), their query text cut to summaryQueryLimit.
func (s *TraceStore) List(limit int) []QueryTrace {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.count
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]QueryTrace, 0, n)
	for k := 0; k < n; k++ {
		tr := s.buf[((s.head-1-k)%s.count+s.count)%s.count].QueryTrace
		if len(tr.Query) > summaryQueryLimit { // a rune the cut splits is dropped
			tr.Query = strings.ToValidUTF8(tr.Query[:summaryQueryLimit], "") + "…"
		}
		out = append(out, tr)
	}
	return out
}

// Len returns how many traces are currently retained.
func (s *TraceStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// Cap returns the store's configured capacity.
func (s *TraceStore) Cap() int { return s.capacity }

// idCounter disambiguates IDs generated within the same nanosecond when
// the system randomness source is unavailable.
var idCounter atomic.Uint64

// NewQueryID returns a fresh 16-hex-character query identifier.
func NewQueryID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano())^idCounter.Add(1)<<32)
	}
	return "q" + hex.EncodeToString(b[:])
}
