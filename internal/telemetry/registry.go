// Package telemetry is the measurement layer of LLM-MS: a
// dependency-free, concurrency-safe metrics registry with Prometheus
// text-format exposition, a bounded store of completed query traces with
// span timings, and the collector that turns the orchestrator's event
// stream (core.Event) into both.
//
// The paper's §7.3 "Model Routing Transparency" and §9.5 "Transparent
// Orchestration Logs" motivate showing *why* the orchestrator allocated
// tokens the way it did; this package adds the *when*: per-round wall
// clock, per-model per-chunk generation latency, retry spend, and
// aggregate counters across queries, so the accuracy-vs-timeliness
// trade-off that governs multi-LLM systems is finally observable in a
// running server.
//
// Label cardinality is bounded by construction: instruments are labeled
// by model name, strategy, route pattern, operation, or status code —
// never by query text or any other unbounded value — and every metric
// family additionally caps its distinct series at maxSeries,
// collapsing the excess into a single series whose label values are all
// OverflowLabel. The registry therefore cannot grow without bound under
// heavy traffic.
package telemetry

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// maxSeries is the per-family cap on distinct label combinations.
const maxSeries = 512

// OverflowLabel is the label value that absorbs observations once a
// family has reached its series cap: the first observation beyond the
// cap creates one final series with every label set to this value, and
// all subsequent novel label combinations collapse into it.
const OverflowLabel = "_other"

// DefBuckets are the default histogram upper bounds (seconds), matching
// the conventional Prometheus client defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use; the
// recording paths (Inc/Add/Set/Observe) are lock-free after a series'
// first observation: each family publishes its series map through an
// atomic pointer, and a series' first observation publishes a copy with
// the series added, under the family's lock.
type Registry struct {
	mu        sync.RWMutex
	families  map[string]*family
	maxSeries int // the cap of families registered from now on; in-package tests lower it
	onScrape  []func()
}

// NewRegistry returns an empty registry with the maxSeries cap.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), maxSeries: maxSeries}
}

// OnScrape registers a hook run at the start of every WriteText call,
// before exposition. Hooks sample lazily-computed values (runtime
// stats, queue depths) into gauges so scrapes see fresh numbers
// without a background sampler goroutine. Hooks must not scrape the
// registry themselves.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.mu.Unlock()
}

// Counter registers (or looks up) a monotonically increasing counter
// family. Registering the same name twice with an identical shape
// returns the same family; a conflicting re-registration panics, as does
// an invalid metric or label name — both are programmer errors that
// should surface at startup.
func (r *Registry) Counter(name, help string, labels ...string) Counter {
	return Counter{r.register(name, help, typeCounter, nil, labels)}
}

// Gauge registers (or looks up) a gauge family — a value that can go up
// and down via Set/Add.
func (r *Registry) Gauge(name, help string, labels ...string) Gauge {
	return Gauge{r.register(name, help, typeGauge, nil, labels)}
}

// Histogram registers (or looks up) a fixed-bucket histogram family.
// buckets are upper bounds in increasing order; nil means DefBuckets.
// The +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return Histogram{r.register(name, help, typeHistogram, buckets, labels)}
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

func (r *Registry) register(name, help, typ string, buckets []float64, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %s", l, name))
		}
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s buckets not strictly increasing", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !sameStrings(f.labels, labels) || !sameFloats(f.bucketsUB, buckets) {
			panic(fmt.Sprintf("telemetry: conflicting re-registration of %s", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:    append([]string(nil), labels...),
		bucketsUB: append([]float64(nil), buckets...),
		maxSeries: r.maxSeries,
	}
	f.series.Store(&map[string]*series{})
	// Unlabeled scalar metrics render a zero line immediately, so every
	// registered family is visible to scrapes before its first event.
	if len(labels) == 0 && typ != typeHistogram {
		f.get(nil)
	}
	r.families[name] = f
	return f
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// family is one named metric with a set of labeled series.
type family struct {
	name      string
	help      string
	typ       string
	labels    []string
	bucketsUB []float64 // histogram upper bounds, +Inf implicit
	maxSeries int

	// series is the published map, never written once stored; mu
	// serializes the writers that replace it.
	mu     sync.Mutex
	series atomic.Pointer[map[string]*series]
}

// series is one label combination's live cells. Scalar values use
// atomic float bits; histogram buckets use atomic integer counts.
type series struct {
	labelVals []string
	val       atomicFloat
	bucketN   []atomic.Uint64 // per-bucket (non-cumulative) counts
	count     atomic.Uint64
	sum       atomicFloat
}

const labelSep = "\x1f"

func (f *family) get(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	// The key is built on the stack and looked up without becoming a
	// string: recording into a series that exists allocates nothing.
	var buf [96]byte
	key := joinLabels(buf[:0], vals)
	if s, ok := (*f.series.Load())[string(key)]; ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.series.Load()
	if s, ok := old[string(key)]; ok {
		return s
	}
	if len(old) >= f.maxSeries {
		// Cardinality guard: collapse novel label combinations into the
		// overflow series instead of growing without bound.
		vals = make([]string, len(f.labels))
		for i := range vals {
			vals[i] = OverflowLabel
		}
		key = joinLabels(nil, vals)
		if s, ok := old[string(key)]; ok {
			return s
		}
	}
	s := &series{labelVals: append([]string(nil), vals...)}
	if f.typ == typeHistogram {
		s.bucketN = make([]atomic.Uint64, len(f.bucketsUB)+1)
	}
	// Copy on write: maxSeries (plus the overflow series) bounds the copies.
	next := maps.Clone(old)
	next[string(key)] = s
	f.series.Store(&next)
	return s
}

func joinLabels(dst []byte, vals []string) []byte {
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, labelSep...)
		}
		dst = append(dst, v...)
	}
	return dst
}

// Counter is a handle on a counter family. The zero value is inert: all
// methods are no-ops, so optional instrumentation needs no nil checks.
type Counter struct{ f *family }

// Inc adds one to the series identified by the label values.
func (c Counter) Inc(labelVals ...string) { c.Add(1, labelVals...) }

// Add adds v (must be non-negative) to the series.
func (c Counter) Add(v float64, labelVals ...string) {
	if c.f == nil || v < 0 || math.IsNaN(v) {
		return
	}
	c.f.get(labelVals).val.Add(v)
}

// Value returns the series' current value (0 if never touched).
func (c Counter) Value(labelVals ...string) float64 {
	if c.f == nil {
		return 0
	}
	return c.f.get(labelVals).val.Load()
}

// Gauge is a handle on a gauge family. The zero value is inert.
type Gauge struct{ f *family }

// Set stores v in the series.
func (g Gauge) Set(v float64, labelVals ...string) {
	if g.f == nil {
		return
	}
	g.f.get(labelVals).val.Set(v)
}

// Add moves the series by v (negative to decrease).
func (g Gauge) Add(v float64, labelVals ...string) {
	if g.f == nil {
		return
	}
	g.f.get(labelVals).val.Add(v)
}

// Value returns the series' current value.
func (g Gauge) Value(labelVals ...string) float64 {
	if g.f == nil {
		return 0
	}
	return g.f.get(labelVals).val.Load()
}

// Histogram is a handle on a histogram family. The zero value is inert.
type Histogram struct{ f *family }

// Observe records v into the series' bucket counts and sum.
func (h Histogram) Observe(v float64, labelVals ...string) {
	if h.f == nil || math.IsNaN(v) {
		return
	}
	s := h.f.get(labelVals)
	i := sort.SearchFloat64s(h.f.bucketsUB, v) // first bucket with ub >= v
	s.bucketN[i].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
}

// Count returns how many observations the series has received.
func (h Histogram) Count(labelVals ...string) uint64 {
	if h.f == nil {
		return 0
	}
	return h.f.get(labelVals).count.Load()
}

// atomicFloat is a float64 updated via CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// WriteText renders every family in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with # HELP and
// # TYPE lines followed by its series sorted by label values. Histograms
// render cumulative _bucket lines (le up to +Inf), _sum, and _count.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	hooks := r.onScrape
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, fn := range hooks {
		fn()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.writeText(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) writeText(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	published := *f.series.Load()
	keys := make([]string, 0, len(published))
	for k := range published {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sers := make([]*series, len(keys))
	for i, k := range keys {
		sers[i] = published[k]
	}

	for _, s := range sers {
		if f.typ != typeHistogram {
			b.WriteString(f.name)
			writeLabels(b, f.labels, s.labelVals, "", 0)
			fmt.Fprintf(b, " %s\n", formatFloat(s.val.Load()))
			continue
		}
		cum := uint64(0)
		for i, ub := range f.bucketsUB {
			cum += s.bucketN[i].Load()
			b.WriteString(f.name)
			b.WriteString("_bucket")
			writeLabels(b, f.labels, s.labelVals, formatFloat(ub), 1)
			fmt.Fprintf(b, " %d\n", cum)
		}
		cum += s.bucketN[len(f.bucketsUB)].Load()
		b.WriteString(f.name)
		b.WriteString("_bucket")
		writeLabels(b, f.labels, s.labelVals, "+Inf", 1)
		fmt.Fprintf(b, " %d\n", cum)
		b.WriteString(f.name)
		b.WriteString("_sum")
		writeLabels(b, f.labels, s.labelVals, "", 0)
		fmt.Fprintf(b, " %s\n", formatFloat(s.sum.Load()))
		b.WriteString(f.name)
		b.WriteString("_count")
		writeLabels(b, f.labels, s.labelVals, "", 0)
		fmt.Fprintf(b, " %d\n", s.count.Load())
	}
}

// writeLabels renders {name="val",...}; withLe 1 appends le=leVal. No
// braces are written when there is nothing to enclose.
func writeLabels(b *strings.Builder, names, vals []string, leVal string, withLe int) {
	if len(names) == 0 && withLe == 0 {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if withLe == 1 {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(leVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler returns an http.Handler serving the registry in text
// exposition format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
