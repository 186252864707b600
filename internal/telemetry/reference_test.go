package telemetry

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// This file keeps the tracer the span arena replaced as its reference
// (house rule: the plain implementation moves into the test file and a
// property test holds the fast one to it). It is the parent commit's
// design unchanged — a heap Span per span, hex-string IDs minted one by
// one, a map[string]string per span, one shared buffer of SpanRecord
// copies, Records() copying it out — with the spec changes the arena makes
// applied, so the two can be compared record for record:
//
//   - a span takes its place in the trace when it starts, not when it
//     ends: the 512 cap refuses the span (nil, like its descendants) and
//     counts it; records still read back in end order;
//   - a span keeps at most maxAttrs keys, the rest are counted;
//   - both counts are put on the root's record when the trace is read, not
//     when the root ends;
//   - Adopt discards a record whose IDs are not a tracer's hex, and reads
//     any status but "error" as "ok";
//   - numbers are set as the strings call sites used to format.

var bg = context.Background()

type refBuf struct {
	mu           sync.Mutex
	root         *refSpan
	reserved     int
	recs         []SpanRecord // in end order
	dropped      int
	droppedAttrs int
}

type refSpan struct {
	buf   *refBuf
	mu    sync.Mutex
	rec   SpanRecord
	ended bool
}

var refIDs int

func refID(n int) string {
	refIDs++
	return fmt.Sprintf("%0*x", n, refIDs)
}

func refRoot(service, name, traceID, parentID string) *refSpan {
	if traceID == "" {
		traceID = refID(32)
	}
	s := &refSpan{buf: &refBuf{}, rec: SpanRecord{
		TraceID: traceID, SpanID: refID(16), ParentID: parentID, Name: name, Service: service, Start: time.Now(),
	}}
	s.buf.root, s.buf.reserved = s, 1
	return s
}

func (b *refBuf) reserve() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.reserved >= MaxSpansPerTrace {
		b.dropped++
		return false
	}
	b.reserved++
	return true
}

func (b *refBuf) add(rec SpanRecord) {
	b.mu.Lock()
	b.recs = append(b.recs, rec)
	b.mu.Unlock()
}

func (s *refSpan) Child(name string) *refSpan {
	if s == nil {
		return nil
	}
	c := &refSpan{buf: s.buf, rec: SpanRecord{
		TraceID: s.rec.TraceID, SpanID: refID(16), ParentID: s.rec.SpanID,
		Name: name, Service: s.rec.Service, Start: time.Now(),
	}}
	if !s.buf.reserve() {
		return nil
	}
	return c
}

func (s *refSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if _, ok := s.rec.Attrs[key]; !ok && len(s.rec.Attrs) == maxAttrs {
		s.buf.mu.Lock()
		s.buf.droppedAttrs++
		s.buf.mu.Unlock()
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]string, 4)
	}
	s.rec.Attrs[key] = value
}

// lateSetAttr is the query observer's late write (a chunk's score after
// the chunk): SetAttr on an open span, and on an ended one a write into
// its record.
func (s *refSpan) lateSetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	ended := s.ended
	s.mu.Unlock()
	if !ended {
		s.SetAttr(key, value)
		return
	}
	b := s.buf
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.recs {
		rec := &b.recs[i]
		if rec.SpanID != s.rec.SpanID {
			continue
		}
		if _, ok := rec.Attrs[key]; !ok && len(rec.Attrs) == maxAttrs {
			b.droppedAttrs++
			return
		}
		if rec.Attrs == nil {
			rec.Attrs = make(map[string]string, 4)
		}
		rec.Attrs[key] = value
	}
}

func (s *refSpan) End(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.rec.Duration = time.Since(s.rec.Start)
	s.rec.Status = "ok"
	if err != nil {
		s.rec.Status, s.rec.Error = "error", err.Error()
	}
	s.buf.add(s.rec)
}

func (s *refSpan) Records() []SpanRecord {
	b := s.buf
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]SpanRecord, len(b.recs))
	copy(out, b.recs)
	for i := range out {
		if out[i].SpanID != b.root.rec.SpanID || b.dropped+b.droppedAttrs == 0 {
			continue
		}
		attrs := make(map[string]string, len(out[i].Attrs)+2)
		for k, v := range out[i].Attrs {
			attrs[k] = v
		}
		if b.dropped > 0 {
			attrs["dropped_spans"] = strconv.Itoa(b.dropped)
		}
		if b.droppedAttrs > 0 {
			attrs["dropped_attrs"] = strconv.Itoa(b.droppedAttrs)
		}
		out[i].Attrs = attrs
	}
	return out
}

func (s *refSpan) Adopt(recs []SpanRecord) {
	if s == nil {
		return
	}
	for _, r := range recs {
		var id [16]byte
		if r.TraceID != s.rec.TraceID || !parseID(id[:8], r.SpanID) || r.ParentID != "" && !parseID(id[:8], r.ParentID) {
			continue
		}
		if r.Status != "error" {
			r.Status, r.Error = "ok", ""
		}
		if len(r.Attrs) == 0 {
			r.Attrs = nil
		}
		if s.buf.reserve() {
			s.buf.add(r)
		}
	}
}

// tracePair is one trace in both implementations, driven in lockstep.
type tracePair struct {
	arena []*Span // every span started, nil where refused, index-aligned with ref
	ref   []*refSpan
	depth []int
}

func (p *tracePair) add(a *Span, r *refSpan, depth int) {
	p.arena, p.ref, p.depth = append(p.arena, a), append(p.ref, r), append(p.depth, depth)
}

// structure renders a record set up to IDs and clock: each record's name,
// service, parent as an index into the set (a parent that is not in it is
// still in flight — or, for the root and for adopted records, the ID that
// was given), attributes, status and error; and the times too for adopted
// records, whose times were given.
func structure(recs []SpanRecord, adopted map[string]bool) []string {
	index := make(map[string]int, len(recs))
	for i, r := range recs {
		index[r.SpanID] = i
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		parent := r.ParentID
		if j, ok := index[parent]; ok {
			parent = "#" + strconv.Itoa(j)
		} else if r.Name != "root" && !adopted[r.SpanID] {
			parent = "in flight" // an ID of the implementation's own minting
		}
		keys := make([]string, 0, len(r.Attrs))
		for k, v := range r.Attrs {
			keys = append(keys, k+"="+v)
		}
		sort.Strings(keys)
		out[i] = fmt.Sprintf("%s/%s parent=%s attrs=%v status=%s error=%q", r.Name, r.Service, parent, keys, r.Status, r.Error)
		if adopted[r.SpanID] {
			out[i] += fmt.Sprintf(" id=%s start=%s dur=%d", r.SpanID, r.Start.Format(time.RFC3339Nano), r.Duration)
		}
	}
	return out
}

// TestArenaMatchesReference drives the arena and the reference tracer with
// the same seeded operation sequences — roots and remote roots, children
// to depth 6, string/int/float/list attributes with overwrites and
// overflow, errors, double Ends, attributes after End, adoption of
// matching, foreign and malformed records, more than 512 spans — and
// requires the same record set from both, up to IDs and clock. Seeds past
// 60 add what moves a span's attributes out of its slot: bursts of 4–9
// keys on one span and overwrites after them, the observer's late writes
// (ended spans included), and adopted records of 5–8 attributes.
func TestArenaMatchesReference(t *testing.T) {
	keys := []string{"model", "tokens", "round", "replica", "breaker", "role", "tier", "score", "lines", "weight", "cache"}
	errs := []error{nil, nil, nil, fmt.Errorf("boom"), fmt.Errorf("context canceled\n\"quoted\"")}
	tracer := NewTracer("svc")
	var overflowedLate, wideGrafts int
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var p tracePair
		adopted := map[string]bool{}
		var aroot *Span
		var rroot *refSpan
		if seed%3 == 0 {
			tid, pid := fmt.Sprintf("%032x", seed), fmt.Sprintf("%016x", seed+7)
			_, aroot = tracer.StartRootFrom(bg, "root", tid, pid)
			rroot = refRoot("svc", "root", tid, pid)
		} else {
			_, aroot = tracer.StartRoot(bg, "root")
			rroot = refRoot("svc", "root", aroot.TraceID(), "")
		}
		aroot.Hold()
		p.add(aroot, rroot, 0)
		ops := 40 + rng.Intn(200)
		if seed%10 == 0 {
			ops = 2500 // past the span cap
		}
		kinds := 12
		if seed > 60 {
			kinds = 14
		}
		for op := 0; op < ops; op++ {
			i := rng.Intn(len(p.arena))
			a, r := p.arena[i], p.ref[i]
			switch k := rng.Intn(kinds); {
			case k < 4 && p.depth[i] < 6:
				name := "span" + strconv.Itoa(rng.Intn(5))
				p.add(a.Child(name), r.Child(name), p.depth[i]+1)
			case k < 4: // a leaf that starts and ends at once
				ca, cr := a.Child("leaf"), r.Child("leaf")
				ca.End(nil)
				cr.End(nil)
			case k == 4:
				key, v := keys[rng.Intn(len(keys))], "v"+strconv.Itoa(rng.Intn(3))
				a.SetAttr(key, v)
				r.SetAttr(key, v)
			case k == 5:
				key, v := keys[rng.Intn(len(keys))], rng.Intn(2000)-1000
				a.SetInt(key, v)
				r.SetAttr(key, strconv.Itoa(v))
			case k == 6:
				key, v := keys[rng.Intn(len(keys))], rng.Float64()*2-0.5
				a.SetFloat(key, v)
				r.SetAttr(key, fmt.Sprintf("%.3f", v))
			case k == 7:
				key, vs := keys[rng.Intn(len(keys))], keys[:rng.Intn(4)]
				a.SetList(key, vs)
				r.SetAttr(key, strings.Join(vs, ","))
			case k < 11 && i > 0:
				err := errs[rng.Intn(len(errs))]
				a.End(err)
				r.End(err) // again and again on the same span, too
			case k == 12: // 4–9 keys on one span, then some of them again
				off := rng.Intn(len(keys))
				for j, n := 0, 4+rng.Intn(6); j < n; j++ {
					key, v := keys[(off+j)%len(keys)], "w"+strconv.Itoa(rng.Intn(3))
					a.SetAttr(key, v)
					r.SetAttr(key, v)
				}
				for j := rng.Intn(4); j > 0; j-- {
					key, v := keys[(off+rng.Intn(9))%len(keys)], rng.Intn(100)
					a.SetInt(key, v)
					r.SetAttr(key, strconv.Itoa(v))
				}
			case k == 13: // a late write, as the observer scores and prunes a chunk after it ended
				key := keys[rng.Intn(len(keys))]
				if a != nil && a.state > spanOpen && a.run != 0 {
					overflowedLate++
				}
				if rng.Intn(2) == 0 {
					v := rng.Float64()
					a.write(true, key, attrFloat|math.Float64bits(v)>>2)
					r.lateSetAttr(key, fmt.Sprintf("%.3f", v))
				} else {
					v := "trailing by 0." + strconv.Itoa(rng.Intn(1000))
					a.write(true, key, attrText, v)
					r.lateSetAttr(key, v)
				}
			default:
				attrs := map[string]string{"tokens": strconv.Itoa(op), "model": "m"}
				if seed > 60 { // 5–8 attributes; past 8 which key a graft drops is map order
					for j, n := 0, 3+rng.Intn(4); j < n; j++ {
						attrs[keys[2+j]] = "g" + strconv.Itoa(j)
					}
					wideGrafts++
				}
				recs := []SpanRecord{
					{TraceID: rroot.rec.TraceID, SpanID: fmt.Sprintf("%016x", 1<<40+op), ParentID: "cc00000000000000", Name: "remote",
						Service: "modeld", Start: time.Unix(1700000000, int64(op)).UTC(), Duration: time.Duration(op),
						Attrs: attrs, Status: "ok"},
					{TraceID: rroot.rec.TraceID, SpanID: fmt.Sprintf("%016x", 1<<41+op), ParentID: fmt.Sprintf("%016x", 1<<40+op), Name: "remote.failed",
						Service: "modeld", Start: time.Unix(1700000001, 0).UTC(), Status: "error", Error: "daemon said no"},
					{TraceID: "ffffffffffffffffffffffffffffffff", SpanID: "00000000000000bb", Name: "stray", Status: "ok"},
					{TraceID: rroot.rec.TraceID, SpanID: "not hex", Name: "malformed", Status: "ok"},
					{TraceID: rroot.rec.TraceID, Name: "anon", Status: "ok"},
				}
				adopted[recs[0].SpanID], adopted[recs[1].SpanID] = true, true
				a.Adopt(recs)
				r.Adopt(recs)
			}
		}
		for i := len(p.arena) - 1; i >= 0; i-- {
			if rng.Intn(8) > 0 { // some spans stay in flight
				p.arena[i].End(nil)
				p.ref[i].End(nil)
			}
		}
		got, want := structure(aroot.Records(), adopted), structure(rroot.Records(), adopted)
		defer aroot.Release()
		if !reflect.DeepEqual(got, want) {
			for i := 0; i < len(got) || i < len(want); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Fatalf("seed %d: record %d of %d/%d:\n arena     %s\n reference %s", seed, i, len(got), len(want), g, w)
				}
			}
		}
		if _, refused := aroot.counts(); seed%10 == 0 && (refused == 0 || len(got) > MaxSpansPerTrace) {
			t.Fatalf("seed %d: %d records and %d spans refused; the sequence was to run past the cap", seed, len(got), refused)
		}
	}
	if overflowedLate == 0 || wideGrafts == 0 {
		t.Fatalf("%d late writes to ended spans past a slot's attributes and %d wide grafts; the schedules were to make both",
			overflowedLate, wideGrafts)
	}
}
