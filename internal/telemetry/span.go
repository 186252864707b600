package telemetry

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the distributed-tracing layer: a dependency-free
// Span/Tracer implementation carried through context.Context so one
// query yields a single span tree covering HTTP handling, cache lookup,
// admission wait, orchestration rounds, fleet replica calls, and every
// modeld HTTP request — including daemon-side spans joined across the
// process boundary via the W3C traceparent header.
//
// Design notes:
//
//   - A span is a slot in its trace's arena: fixed-size blocks that never
//     move, so the *Span a context carries stays valid while the arena
//     grows. A slot is written in place by whoever observes the fact
//     (Child takes it, SetAttr/SetInt/SetFloat fill its inline attributes,
//     End stamps duration and status) and read in place by whoever needs
//     it (Walk); nothing is copied or converted on a query's path. IDs are
//     binary and become hex only where bytes leave the process.
//   - A slot holds four attributes; a span's fifth key moves them all to
//     an overflow run of eight that the arena keeps, so a stored span
//     costs what its attributes use. A stored trace gives its blocks and
//     runs past the ones in use back to free lists the next trace draws
//     from (trim).
//   - Arenas are pooled. A trace stays out of the pool while a span of it
//     is open or someone holds it (Hold/Release: an entry point for its
//     request's extent, the query observer until Finish, the trace store
//     while the trace is in the ring, a reader while it renders); whoever
//     ends the last open span or drops the last hold returns it. A handle
//     is good while its span is open or its trace is held, and not after:
//     a goroutine that outlives its request keeps the arena alive through
//     its own open span and never writes into a recycled one.
//   - A nil *Span is a valid no-op receiver for every method, so call
//     sites never branch on "is there a trace".
//   - Cross-process spans: modeld.Client injects Traceparent() into
//     request headers; the daemon parses it with ParseTraceparent, builds
//     its own subtree under the caller's span ID and writes its arena onto
//     the NDJSON done line, which the client decodes straight into the
//     calling span's arena (Graft).

// MaxSpansPerTrace bounds one trace's arena. A span that would start past
// the cap is refused (a nil span, like its descendants) and counted; the
// count is stamped on the trace's root as "dropped_spans" whenever the
// trace is read, so a runaway fan-out cannot hold unbounded memory.
const MaxSpansPerTrace = 512

const (
	blockSpans      = 10      // slots per block, 2 000 B in the 2 KiB size class: a query's 19–32 spans are 2–4 blocks
	inlineAttrs     = 4       // attributes a slot holds; a fifth key moves the span's to an overflow run
	maxAttrs        = 8       // attributes per span, an overflow run's size; a key past them is counted ("dropped_attrs")
	maxTextBytes    = 256     // one attribute value or error text is cut here
	maxPooledBlocks = 6       // an arena that grew past this is dropped, not pooled
	maxPooledRuns   = 8       // nor one whose overflow runs grew past this,
	maxPooledText   = 4 << 10 // or whose text buffer did
)

// SpanRecord is one finished span in its JSON shape: what /api/traces/{id}
// serves and what the modeld done line carries. It is the read side only —
// Records renders it from the arena; nothing on a query's path builds one.
type SpanRecord struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Service  string            `json:"service,omitempty"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Status   string            `json:"status"` // ok | error
	Error    string            `json:"error,omitempty"`
}

// Tracer mints root spans for one service ("llmms", "modeld"). A nil
// *Tracer is valid and disables tracing: StartRoot returns a nil span
// and the whole instrumented path degrades to no-ops.
type Tracer struct {
	service string
}

// NewTracer returns a tracer stamping every span with the service name.
func NewTracer(service string) *Tracer { return &Tracer{service: service} }

// Attr is one typed attribute of a span; SpanData.Value reads its value.
// val is the kind, in its top two bits, over the value, so that four of
// them fit a slot in 96 bytes.
type Attr struct {
	Key string
	val uint64
}

const (
	attrText  = iota << 62 // over where the value lies in the arena's text: offset<<30 | length
	attrInt                // over the low 62 bits of the int
	attrFloat              // over the float64's bits less the two lowest of its mantissa
	attrKind  = 3 << 62
)

const (
	spanOpen uint8 = iota + 1
	spanOK
	spanError
)

// Span is one stage of a trace: a slot of the trace's arena. Create
// children with StartSpan (context) or Child (explicit parent); finish
// with End. All methods are safe on a nil receiver.
type Span struct {
	tr         *trace
	id, parent [8]byte
	name       string
	service    string
	start      time.Time
	dur        time.Duration
	errText    uint64 // where the error text lies, as in an attrText
	state      uint8  // 0 until taken, then spanOpen → spanOK | spanError
	nattr      uint8
	num, next  uint16 // slot number from 1; the slot that ended after this one
	run        uint16 // the overflow run holding the attributes, from 1; 0 while they are inline
	attrs      [inlineAttrs]Attr
}

// trace is one trace's arena. mu guards everything in it and in its slots.
type trace struct {
	mu           sync.Mutex
	id           [16]byte
	base         uint64 // span IDs are base | slot number
	n            int    // slots taken
	open         int    // spans started and not ended
	holds        int
	pooled       bool
	head, tail   uint16 // the ended slots, by number, in the order they ended
	dropped      int    // spans refused at the cap
	droppedAttrs int
	text         []byte // attribute values and error texts
	blocks       []*[blockSpans]Span
	runs         []*[maxAttrs]Attr // overflow runs, the first nrun in use
	nrun         int
}

// The pool of arenas, and the free lists of the blocks and overflow runs
// that a stored trace trims off and that take and overflow draw from.
var (
	tracePool = sync.Pool{New: func() any { return new(trace) }}
	blockPool = sync.Pool{New: func() any { return new([blockSpans]Span) }}
	runPool   = sync.Pool{New: func() any { return new([maxAttrs]Attr) }}
)

// Text buffers change hands so that a stored trace holds one its text
// fills, give or take textClass bytes, and no buffer is allocated in a
// steady state: trim copies the text into a buffer of its size from
// fitText and leaves the roomy buffer it was written in to roomyText;
// StartRoot gives the arena it draws a roomy buffer from there and leaves
// its small one, the text of a trace since evicted, to fitText. A *[]byte
// carries a buffer through either pool, and is handed on with the one
// swapped for it.
const textClass = 64

var (
	roomyText sync.Pool
	fitText   [maxPooledText/textClass + 1]sync.Pool // by cap / textClass
)

// unlock releases t.mu and, when End or Release just left the trace with
// no open span and no hold, returns it to the pool — unless it grew past
// what a pooled arena may carry. A pooled arena keeps its contents until
// StartRoot draws it again.
func (t *trace) unlock() {
	free := t.open == 0 && t.holds == 0 && !t.pooled
	t.pooled = t.pooled || free
	keep := len(t.blocks) <= maxPooledBlocks && len(t.runs) <= maxPooledRuns && cap(t.text) <= maxPooledText
	t.mu.Unlock()
	if free && keep {
		tracePool.Put(t)
	}
}

// trim gives the blocks past the last taken slot and the overflow runs
// past the last one in use back to their free lists, cleared, and moves
// the text into a buffer it fills, so that a stored trace keeps only what
// its spans use and no stale slot keeps another trace reachable. The
// caller holds t.mu.
func (t *trace) trim() {
	used := (t.n + blockSpans - 1) / blockSpans
	for _, b := range t.blocks[used:] {
		*b = [blockSpans]Span{}
		blockPool.Put(b)
	}
	clear(t.blocks[used:])
	t.blocks = t.blocks[:used]
	for _, r := range t.runs[t.nrun:] {
		*r = [maxAttrs]Attr{}
		runPool.Put(r)
	}
	clear(t.runs[t.nrun:])
	t.runs = t.runs[:t.nrun]
	class := (len(t.text) + textClass - 1) / textClass // the smallest whose buffers hold the text
	if cap(t.text) < (class+1)*textClass || cap(t.text) > maxPooledText {
		return
	}
	// A buffer made for a class may be rounded up into the next one.
	p, _ := fitText[class].Get().(*[]byte)
	if p == nil {
		p, _ = fitText[class+1].Get().(*[]byte)
	}
	if p == nil {
		p = new([]byte)
		*p = make([]byte, 0, class*textClass)
	}
	fit := append((*p)[:0], t.text...)
	*p, t.text = t.text[:0], fit
	roomyText.Put(p)
}

// roomier gives the arena a text buffer from roomyText when one there is
// larger than its own, which goes to fitText in its place.
func (t *trace) roomier() {
	p, _ := roomyText.Get().(*[]byte)
	switch {
	case p == nil:
	case cap(*p) <= cap(t.text):
		roomyText.Put(p)
	default:
		small := t.text[:0]
		t.text, *p = (*p)[:0], small
		fitText[cap(small)/textClass].Put(p)
	}
}

// take reserves the next slot, or counts a drop at the cap.
func (t *trace) take() *Span {
	if t.n >= MaxSpansPerTrace {
		t.dropped++
		return nil
	}
	if t.n == len(t.blocks)*blockSpans {
		t.blocks = append(t.blocks, blockPool.Get().(*[blockSpans]Span))
	}
	t.n++
	s := t.slot(uint16(t.n))
	*s = Span{tr: t, num: uint16(t.n)}
	binary.BigEndian.PutUint64(s.id[:], t.base|uint64(t.n))
	return s
}

func (t *trace) slot(num uint16) *Span { return &t.blocks[(num-1)/blockSpans][(num-1)%blockSpans] }

// overflow reserves the next overflow run and returns it with its number.
func (t *trace) overflow() (*[maxAttrs]Attr, uint16) {
	if t.nrun == len(t.runs) {
		t.runs = append(t.runs, runPool.Get().(*[maxAttrs]Attr))
	}
	t.nrun++
	return t.runs[t.nrun-1], uint16(t.nrun)
}

// ended links s behind the spans that ended before it: a trace reads back
// in end order, and the tree is reconstructed from the parent links.
func (t *trace) ended(s *Span) {
	if t.tail == 0 {
		t.head = s.num
	} else {
		t.slot(t.tail).next = s.num
	}
	t.tail = s.num
}

// addText stores a value in the arena's text and returns where.
func addText[T string | []byte](t *trace, v T) uint64 {
	v = v[:min(len(v), maxTextBytes)]
	t.text = append(t.text, v...)
	return uint64(len(t.text)-len(v))<<30 | uint64(len(v))
}

func textAt(text []byte, at uint64) []byte { return text[at&^attrKind>>30:][:at&(1<<30-1)] }

// StartRoot opens a new trace: fresh trace ID, no parent. The returned
// context carries the span for StartSpan call sites downstream. On a
// nil tracer both returns are no-ops (ctx unchanged, nil span). The trace
// returns to the pool when its last span ends, unless someone holds it.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	return t.StartRootFrom(ctx, name, "", "")
}

// StartRootFrom opens this process's root span as a child of a remote
// parent: the daemon side of traceparent propagation. traceID and
// parentID must be the already-validated values from ParseTraceparent.
func (t *Tracer) StartRootFrom(ctx context.Context, name, traceID, parentID string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := t.startRoot(name, traceID, parentID)
	return ContextWithSpan(ctx, s), s
}

// startRoot draws an arena and takes its first slot. A fresh trace costs
// the one crypto/rand read its trace ID and span-ID base come from; a
// joined one derives its base from the caller's span ID, which is unique
// to the request, so two daemons' spans of one trace do not collide.
func (t *Tracer) startRoot(name, traceID, parentID string) *Span {
	var id [16]byte
	var parent [8]byte
	var base uint64
	if parseID(id[:], traceID) && parseID(parent[:], parentID) {
		base = binary.BigEndian.Uint64(parent[:]) * 0x9e3779b97f4a7c15
	} else {
		var b [24]byte
		if _, err := crand.Read(b[:]); err != nil {
			binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
			binary.BigEndian.PutUint64(b[16:], idCounter.Add(1)<<16)
		}
		copy(id[:], b[:])
		parent, base = [8]byte{}, binary.BigEndian.Uint64(b[16:])
	}
	now := time.Now()
	tr := tracePool.Get().(*trace)
	tr.mu.Lock()
	tr.id, tr.base, tr.text, tr.pooled = id, base&^0xffff, tr.text[:0], false
	tr.roomier()
	tr.n, tr.nrun, tr.open, tr.holds, tr.dropped, tr.droppedAttrs = 0, 0, 1, 0, 0, 0
	tr.head, tr.tail = 0, 0
	s := tr.take()
	s.parent, s.name, s.service, s.start, s.state = parent, name, t.service, now, spanOpen
	tr.mu.Unlock()
	return s
}

// spanKey is the context key carrying the current span.
type spanKey struct{}

// ContextWithSpan returns ctx carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the current span, or nil when ctx carries
// none (tracing off, or an un-instrumented entry point).
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's current span and returns a
// context carrying the child. With no span in ctx it returns (ctx, nil):
// the nil span no-ops, so call sites stay unconditional.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.Child(name)
	return ContextWithSpan(ctx, child), child
}

// Child opens a child span in the receiver's trace.
func (s *Span) Child(name string) *Span { return s.childAt(name, time.Now()) }

// childAt is Child for a span whose start the caller observed.
func (s *Span) childAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	c := t.take()
	if c != nil {
		c.parent, c.name, c.service, c.start, c.state = s.id, name, s.service, start, spanOpen
		t.open++
	}
	t.mu.Unlock()
	return c
}

// Hold keeps the span's trace out of the pool until the matching Release,
// whatever ends meanwhile. An entry point that mints a root defers one
// pair over its request, so every handle the request made stays good for
// as long as the request runs.
func (s *Span) Hold() { s.hold(1) }

// Release drops one Hold.
func (s *Span) Release() { s.hold(-1) }

// keep is the trace store's Hold: it also trims the arena, which from
// then on is mostly read, to the blocks and runs its spans use.
func (s *Span) keep() {
	if s != nil {
		s.tr.mu.Lock()
		s.tr.holds++
		s.tr.trim()
		s.tr.mu.Unlock()
	}
}

func (s *Span) hold(d int) {
	if s != nil {
		s.tr.mu.Lock()
		s.tr.holds += d
		s.tr.unlock()
	}
}

// SetAttr attaches one key/value to the span; a key set twice keeps the
// later value. Values must come from bounded vocabularies or be short
// identifiers — never query text.
func (s *Span) SetAttr(key, value string) { s.write(false, key, attrText, value) }

// SetInt attaches an integer; it reads back as its decimal digits.
func (s *Span) SetInt(key string, v int) { s.write(false, key, attrInt|uint64(v)&^attrKind) }

// SetFloat attaches a float; it reads back with three decimals.
func (s *Span) SetFloat(key string, v float64) { s.write(false, key, attrFloat|math.Float64bits(v)>>2) }

// SetList attaches short strings as one comma-separated value.
func (s *Span) SetList(key string, vs []string) { s.write(false, key, attrText, vs...) }

// write sets key on an open span to val — for attrText, to the texts
// joined by commas. late also writes to an ended one: the query observer
// learns a chunk's score after the chunk.
func (s *Span) write(late bool, key string, val uint64, text ...string) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if s.state == spanOpen || late && s.state > spanOpen {
		if from := len(t.text); val == attrText {
			for i, v := range text {
				if i > 0 {
					t.text = append(t.text, ',')
				}
				t.text = append(t.text, v...)
			}
			t.text = t.text[:min(len(t.text), from+maxTextBytes)]
			val = uint64(from)<<30 | uint64(len(t.text)-from)
		}
		s.put(key, val)
	}
	t.mu.Unlock()
}

// put sets key on the span, moving its attributes to an overflow run when
// the slot is full and counting the key instead when the run is. The
// caller holds the trace's lock.
func (s *Span) put(key string, val uint64) {
	n, ok := putAttr(s.attrList(), int(s.nattr), Attr{key, val})
	if !ok && s.run == 0 {
		var run *[maxAttrs]Attr
		run, s.run = s.tr.overflow()
		copy(run[:], s.attrs[:])
		n, ok = putAttr(run[:], n, Attr{key, val})
	}
	if s.nattr = uint8(n); !ok {
		s.tr.droppedAttrs++
	}
}

// attrList is the storage of the span's attributes, sorted by key in its
// first nattr entries: the slot's own, or its overflow run. The caller
// holds the trace's lock.
func (s *Span) attrList() []Attr {
	if s.run == 0 {
		return s.attrs[:]
	}
	return s.tr.runs[s.run-1][:]
}

// putAttr sets a among attrs[:n], which stay sorted by key — the order the
// wire writes them in — and returns the new n, or false when a is a new key
// and attrs is full.
func putAttr(attrs []Attr, n int, a Attr) (int, bool) {
	i := 0
	for i < n && attrs[i].Key < a.Key {
		i++
	}
	switch {
	case i < n && attrs[i].Key == a.Key:
	case n == len(attrs):
		return n, false
	default:
		copy(attrs[i+1:n+1], attrs[i:n])
		n++
	}
	attrs[i] = a
	return n, true
}

// End finishes the span with its terminal error (nil on success),
// stamping duration and status in place. Later calls are no-ops.
func (s *Span) End(err error) {
	if s != nil {
		s.endAt(time.Since(s.start), err)
	}
}

// endAt is End for a span whose duration the caller observed.
func (s *Span) endAt(dur time.Duration, err error) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if s.state == spanOpen {
		s.dur, s.state = dur, spanOK
		if err != nil {
			s.state, s.errText = spanError, addText(t, err.Error())
		}
		t.open--
		t.ended(s)
	}
	t.unlock()
}

// TraceID returns the span's trace ID as 32 hex characters ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return hexID(s.tr.id[:])
}

// hexID renders an ID of at most 16 bytes, in one allocation.
func hexID(id []byte) string {
	var b [32]byte
	return string(b[:hex.Encode(b[:], id)])
}

// SpanData is one finished span in the arena's own terms — binary IDs,
// typed attributes sorted by key, their text in Text — the shape in which
// a span crosses a package boundary without becoming a SpanRecord. Walk
// lends one per ended slot, aliasing the arena; a wire decoder fills one
// per record (Reset, the fields, AddAttr) and hands it to Graft.
type SpanData struct {
	TraceID          [16]byte
	SpanID, ParentID [8]byte // a zero ParentID is no parent
	Name, Service    string
	Start            time.Time
	Duration         time.Duration
	Failed           bool   // status "error", Error its text
	Error            []byte // read-only under Walk
	Attrs            []Attr
	Text             []byte
}

// Value returns a's value as the string a SpanRecord shows: the text
// itself, aliasing d.Text, or a number rendered into buf the way call
// sites used to format one (%d, %.3f).
func (d *SpanData) Value(a *Attr, buf []byte) []byte {
	switch a.val & attrKind {
	case attrInt:
		return strconv.AppendInt(buf, int64(a.val<<2)>>2, 10)
	case attrFloat:
		return strconv.AppendFloat(buf, math.Float64frombits(a.val<<2), 'f', 3, 64)
	}
	return textAt(d.Text, a.val)
}

// Reset empties d for the next record, keeping its buffers.
func (d *SpanData) Reset() {
	*d = SpanData{Error: d.Error[:0], Attrs: d.Attrs[:0], Text: d.Text[:0]}
}

// AddAttr appends a string attribute to a SpanData being filled.
func (d *SpanData) AddAttr(key string, value []byte) {
	d.Text = append(d.Text, value...)
	d.Attrs = append(d.Attrs, Attr{key, uint64(len(d.Text)-len(value))<<30 | uint64(len(value))})
}

// Walk calls fn with every ended span of s's trace, in the order they
// ended, under the trace's lock: fn reads the span in place and must
// neither keep what d aliases nor touch the trace. Spans still in flight
// are absent.
func (s *Span) Walk(fn func(d SpanData)) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	d := SpanData{TraceID: t.id, Text: t.text}
	for num := t.head; num != 0; {
		sp := t.slot(num)
		num = sp.next
		d.SpanID, d.ParentID, d.Name, d.Service = sp.id, sp.parent, sp.name, sp.service
		d.Start, d.Duration, d.Attrs = sp.start, sp.dur, sp.attrList()[:sp.nattr]
		d.Failed, d.Error = sp.state == spanError, textAt(t.text, sp.errText)
		if sp.num == 1 && t.dropped+t.droppedAttrs > 0 {
			// Counted on the trace, shown on its root: among a copy of the
			// root's attributes, with room for both whatever it holds.
			var attrs [maxAttrs + 2]Attr
			n := copy(attrs[:], d.Attrs)
			if t.dropped > 0 {
				n, _ = putAttr(attrs[:], n, Attr{"dropped_spans", attrInt | uint64(t.dropped)})
			}
			if t.droppedAttrs > 0 {
				n, _ = putAttr(attrs[:], n, Attr{"dropped_attrs", attrInt | uint64(t.droppedAttrs)})
			}
			d.Attrs = attrs[:n]
		}
		fn(d)
	}
}

// Records renders the trace's finished spans as SpanRecords: the read
// side, for /api/traces/{id} and tests. Nil-safe (returns nil).
func (s *Span) Records() []SpanRecord {
	var out []SpanRecord
	s.Walk(func(d SpanData) {
		r := SpanRecord{
			TraceID: hexID(d.TraceID[:]), SpanID: hexID(d.SpanID[:]),
			Name: d.Name, Service: d.Service, Start: d.Start, Duration: d.Duration, Status: "ok",
		}
		if d.ParentID != ([8]byte{}) {
			r.ParentID = hexID(d.ParentID[:])
		}
		if d.Failed {
			r.Status, r.Error = "error", string(d.Error)
		}
		if len(d.Attrs) > 0 {
			r.Attrs = make(map[string]string, len(d.Attrs))
		}
		for i := range d.Attrs {
			r.Attrs[d.Attrs[i].Key] = string(d.Value(&d.Attrs[i], nil))
		}
		out = append(out, r)
	})
	return out
}

// counts reports how many spans of the trace have ended and how many
// were refused at the cap.
func (s *Span) counts() (ended, dropped int) {
	if s == nil {
		return 0, 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.tr.n - s.tr.open, s.tr.dropped
}

// Graft writes a remotely finished span — a record of a daemon's subtree,
// decoded from the done line — into s's trace. A record of another trace
// or without a span ID is discarded: a daemon echoing stale spans cannot
// pollute an unrelated trace. The cap applies record by record.
func (s *Span) Graft(d *SpanData) {
	if s == nil || d.SpanID == ([8]byte{}) {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if d.TraceID != t.id {
		return
	}
	c := t.take()
	if c == nil {
		return
	}
	c.id, c.parent, c.name, c.service = d.SpanID, d.ParentID, d.Name, d.Service
	c.start, c.dur, c.state = d.Start, d.Duration, spanOK
	t.ended(c)
	if d.Failed {
		c.state, c.errText = spanError, addText(t, d.Error)
	}
	for i := range d.Attrs {
		a := d.Attrs[i]
		if a.val&attrKind == attrText {
			a.val = addText(t, textAt(d.Text, a.val))
		}
		c.put(a.Key, a.val)
	}
}

// Adopt grafts records that went through encoding/json — the modeld
// client's stream=false reply, and a done line its scanner declined —
// into s's trace. A record whose IDs are not the hex a tracer writes is
// discarded.
func (s *Span) Adopt(recs []SpanRecord) {
	var d SpanData
	for i := range recs {
		r := &recs[i]
		d.Reset()
		if !parseID(d.TraceID[:], r.TraceID) || !parseID(d.SpanID[:], r.SpanID) ||
			r.ParentID != "" && !parseID(d.ParentID[:], r.ParentID) {
			continue
		}
		d.Name, d.Service, d.Start, d.Duration = r.Name, r.Service, r.Start, r.Duration
		d.Failed, d.Error = r.Status == "error", append(d.Error, r.Error...)
		for k, v := range r.Attrs {
			d.AddAttr(k, []byte(v))
		}
		s.Graft(&d)
	}
}

// --- W3C traceparent ---------------------------------------------------

// Traceparent renders the span as a W3C trace-context header value
// (version 00, sampled flag set): 00-<trace-id>-<span-id>-01.
// Returns "" on a nil span, so callers can skip header injection.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	b := hex.AppendEncode(append(make([]byte, 0, 55), "00-"...), s.tr.id[:])
	b = hex.AppendEncode(append(b, '-'), s.id[:])
	return string(append(b, "-01"...))
}

// ParseTraceparent validates a W3C traceparent header value and returns
// its trace and parent-span IDs. ok is false for anything malformed —
// wrong length, unknown version, anything but lowercase hex (the spec's
// HEXDIGLC), or all-zero IDs — in which case the callee should fall back
// to a fresh root span.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	// 00-{32 hex}-{16 hex}-{2 hex} = 55 bytes; only version 00 is understood.
	if len(h) != 55 || h[:3] != "00-" || h[35] != '-' || h[52] != '-' || strings.ContainsAny(h, "ABCDEF") {
		return "", "", false
	}
	var id [16]byte
	if _, err := hex.Decode(id[:1], []byte(h[53:])); err != nil || !parseID(id[:], h[3:35]) || !parseID(id[:8], h[36:52]) {
		return "", "", false
	}
	return h[3:35], h[36:52], true
}

// parseID decodes src into dst when it is the hex of a non-zero ID of
// len(dst) bytes.
func parseID(dst []byte, src string) bool {
	if len(src) != 2*len(dst) {
		return false
	}
	if _, err := hex.Decode(dst, []byte(src)); err != nil {
		return false
	}
	for _, b := range dst {
		if b != 0 {
			return true
		}
	}
	return false
}
