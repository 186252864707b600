package telemetry

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	mrand "math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceCapacity is the number of completed query traces retained
// when Options.TraceCapacity is zero.
const DefaultTraceCapacity = 256

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
}

// summaryQueryLimit truncates the query text in listing rows.
const summaryQueryLimit = 120

// TraceStore retains the most recent completed query traces in a
// fixed-capacity ring buffer keyed by query ID: the (capacity+1)-th
// insertion evicts the oldest trace. Safe for concurrent use.
//
// Retention is tail-based: traces worth debugging — any non-"ok"
// outcome, or a latency at or above the p99 of recent queries — are
// always stored; ordinary traces are stored with probability
// SampleRate (default 1, keep everything). Lowering the rate under
// heavy traffic keeps the ring full of errors and slow tails instead
// of thousands of identical fast successes.
//
// A stored trace is its header plus a hold on its arena: nothing is
// copied in, the span tree is rendered when someone asks for it, and the
// arena of an evicted trace goes back to the pool.
type TraceStore struct {
	mu       sync.RWMutex
	capacity int
	buf      []storedTrace
	head     int // next write position once full
	count    int
	byID     map[string]int

	sampleRate float64
	sampledOut uint64 // ordinary traces dropped by sampling
	durs       [slowWindow]time.Duration
	durHead    int
	durCount   int
	randf      func() float64 // test seam; nil means math/rand
}

type storedTrace struct {
	QueryTrace
	root *Span // held while stored; nil for a trace without spans
}

// slowWindow is how many recent query durations feed the slow-tail
// (p99) estimate, and slowMinSamples how many must accumulate before
// the estimate is trusted (every trace is "slow" until then).
const (
	slowWindow     = 256
	slowMinSamples = 32
)

// NewTraceStore returns an empty store retaining up to capacity traces
// (non-positive means DefaultTraceCapacity), keeping every trace
// (SampleRate 1).
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceStore{capacity: capacity, byID: make(map[string]int), sampleRate: 1}
}

// SetSampleRate sets the retention probability for ordinary (ok,
// not-slow) traces, clamped to [0, 1]. Error and slow-tail traces are
// always retained regardless. Rate 0 keeps only the tail.
func (s *TraceStore) SetSampleRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	s.mu.Lock()
	s.sampleRate = rate
	s.mu.Unlock()
}

// SampledOut reports how many ordinary traces the tail policy dropped.
func (s *TraceStore) SampledOut() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sampledOut
}

// Put offers a completed trace — its header and the root span of its
// arena, nil when it has none — evicting the oldest beyond capacity. A
// trace with an already-stored ID replaces the stored one in place. The
// verdict comes first: an "ok" trace below the slow-tail threshold may be
// sampled out when SampleRate < 1, and then nothing was done for it;
// a trace that is kept is held, and the one it displaces released.
// Returns whether the trace was retained.
func (s *TraceStore) Put(tr QueryTrace, root *Span) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := true
	if tr.Outcome == "ok" && s.sampleRate < 1 && !s.slowLocked(tr.Elapsed) {
		keep = s.rollLocked() < s.sampleRate
	}
	s.recordDurLocked(tr.Elapsed)
	if !keep {
		s.sampledOut++
		return false
	}
	root.Hold()
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
	return true
}

// slowLocked reports whether d is at or above the p99 of the recent
// duration window. With too few samples every trace counts as slow —
// erring toward retention while the estimate warms up.
func (s *TraceStore) slowLocked(d time.Duration) bool {
	if s.durCount < slowMinSamples {
		return true
	}
	sorted := make([]time.Duration, s.durCount)
	copy(sorted, s.durs[:s.durCount])
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (99*s.durCount + 99) / 100 // ceil(0.99*n)
	if idx > s.durCount {
		idx = s.durCount
	}
	return d >= sorted[idx-1]
}

func (s *TraceStore) recordDurLocked(d time.Duration) {
	s.durs[s.durHead] = d
	s.durHead = (s.durHead + 1) % slowWindow
	if s.durCount < slowWindow {
		s.durCount++
	}
}

func (s *TraceStore) rollLocked() float64 {
	if s.randf != nil {
		return s.randf()
	}
	return mrand.Float64()
}

// Get returns the trace with the given ID, if it is still retained, with
// its spans rendered from the arena as it stands now.
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
		if len(tr.Query) > summaryQueryLimit {
			tr.Query = tr.Query[:summaryQueryLimit] + "…"
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
