package telemetry

import (
	"fmt"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.", "route", "code")
	c.Inc("/a", "200")
	c.Inc("/a", "200")
	c.Add(3, "/b", "500")

	out := scrape(t, r)
	for _, want := range []string{
		"# HELP test_requests_total Requests served.\n",
		"# TYPE test_requests_total counter\n",
		`test_requests_total{route="/a",code="200"} 2` + "\n",
		`test_requests_total{route="/b",code="500"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if got := c.Value("/a", "200"); got != 2 {
		t.Errorf("Value = %v, want 2", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t.")
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("counter after negative add = %v, want 5", got)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "g.")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %v, want 6", got)
	}
	if !strings.Contains(scrape(t, r), "test_gauge 6\n") {
		t.Errorf("gauge not rendered")
	}
}

func TestUnlabeledMetricsRenderBeforeFirstTouch(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_untouched_total", "u.")
	r.Gauge("test_untouched_gauge", "u.")
	r.Histogram("test_untouched_seconds", "u.", nil)
	out := scrape(t, r)
	if !strings.Contains(out, "test_untouched_total 0\n") {
		t.Errorf("untouched counter not rendered as 0:\n%s", out)
	}
	if !strings.Contains(out, "test_untouched_gauge 0\n") {
		t.Errorf("untouched gauge not rendered as 0:\n%s", out)
	}
	// Labeled or histogram families render at least HELP/TYPE.
	if !strings.Contains(out, "# TYPE test_untouched_seconds histogram\n") {
		t.Errorf("untouched histogram family invisible:\n%s", out)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "l.", []float64{0.1, 1, 10}, "op")
	h.Observe(0.05, "gen") // bucket 0.1
	h.Observe(0.5, "gen")  // bucket 1
	h.Observe(0.7, "gen")  // bucket 1
	h.Observe(99, "gen")   // +Inf

	out := scrape(t, r)
	for _, want := range []string{
		`test_latency_seconds_bucket{op="gen",le="0.1"} 1`,
		`test_latency_seconds_bucket{op="gen",le="1"} 3`,
		`test_latency_seconds_bucket{op="gen",le="10"} 3`,
		`test_latency_seconds_bucket{op="gen",le="+Inf"} 4`,
		`test_latency_seconds_count{op="gen"} 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if h.Count("gen") != 4 {
		t.Errorf("Count = %d, want 4", h.Count("gen"))
	}
	// _sum is 100.25; accept the formatted value present on the sum line.
	if !strings.Contains(out, `test_latency_seconds_sum{op="gen"} 100.25`) {
		t.Errorf("missing sum in:\n%s", out)
	}
}

func TestHistogramBoundaryLandsInBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_edge_seconds", "e.", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	out := scrape(t, r)
	if !strings.Contains(out, `test_edge_seconds_bucket{le="1"} 1`+"\n") {
		t.Errorf("observation at upper bound not counted in its bucket:\n%s", out)
	}
}

func TestSeriesCapCollapsesIntoOverflow(t *testing.T) {
	r := NewRegistry()
	r.maxSeries = 2
	c := r.Counter("test_capped_total", "c.", "model")
	c.Inc("a")
	c.Inc("b")
	c.Inc("c") // beyond the cap
	c.Inc("d") // also collapses
	if got := c.Value(OverflowLabel); got != 2 {
		t.Errorf("overflow series = %v, want 2", got)
	}
	out := scrape(t, r)
	if strings.Contains(out, `model="c"`) || strings.Contains(out, `model="d"`) {
		t.Errorf("over-cap series leaked into exposition:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("test_capped_total{model=%q} 2\n", OverflowLabel)) {
		t.Errorf("overflow series missing:\n%s", out)
	}
	// Established series keep recording normally.
	c.Inc("a")
	if got := c.Value("a"); got != 2 {
		t.Errorf("existing series after cap = %v, want 2", got)
	}
}

func TestIdempotentAndConflictingRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_same_total", "s.", "x")
	b := r.Counter("test_same_total", "s.", "x")
	a.Inc("v")
	if got := b.Value("v"); got != 1 {
		t.Errorf("re-registration did not return the same family")
	}
	mustPanic(t, "type conflict", func() { r.Gauge("test_same_total", "s.", "x") })
	mustPanic(t, "label conflict", func() { r.Counter("test_same_total", "s.", "y") })
	mustPanic(t, "invalid name", func() { r.Counter("0bad", "b.") })
	mustPanic(t, "invalid label", func() { r.Counter("test_ok_total", "b.", "bad-label") })
	mustPanic(t, "bucket order", func() { r.Histogram("test_h_seconds", "h.", []float64{2, 1}) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_escape_total", "e.", "v")
	c.Inc("a\"b\\c\nd")
	out := scrape(t, r)
	want := `test_escape_total{v="a\"b\\c\nd"} 1`
	if !strings.Contains(out, want+"\n") {
		t.Errorf("escaping wrong, want %q in:\n%s", want, out)
	}
}

func TestZeroValueHandlesAreInert(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	c.Inc("x")
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Errorf("zero-value handles recorded something")
	}
}

func TestWrongLabelCountPanics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_labels_total", "l.", "a", "b")
	mustPanic(t, "wrong label count", func() { c.Inc("only-one") })
}

// expositionLine matches one sample line of the 0.0.4 text format.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// TestExpositionParseable walks the full rendered output with a strict
// line grammar: HELP then TYPE for each family, every sample parseable,
// histogram buckets cumulative and ending at +Inf == _count.
func TestExpositionParseable(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("parse_requests_total", "Requests.", "route")
	c.Inc("/a")
	h := r.Histogram("parse_latency_seconds", "Latency.", nil, "op")
	h.Observe(0.3, "x")
	h.Observe(7, "x")
	g := r.Gauge("parse_temperature", "Temp.")
	g.Set(36.6)

	out := scrape(t, r)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	helpSeen := map[string]bool{}
	typeSeen := map[string]bool{}
	var lastCum uint64
	var sawInf bool
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("malformed HELP line %q", line)
			}
			helpSeen[parts[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if !helpSeen[parts[2]] {
				t.Errorf("TYPE before HELP for %s", parts[2])
			}
			typeSeen[parts[2]] = true
		default:
			if !expositionLine.MatchString(line) {
				t.Errorf("unparseable sample line %q", line)
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if !typeSeen[base] && !typeSeen[name] {
				t.Errorf("sample %q before its TYPE line", line)
			}
			if strings.HasPrefix(line, "parse_latency_seconds_bucket") {
				v, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
				if err != nil {
					t.Fatalf("bucket value in %q: %v", line, err)
				}
				if v < lastCum {
					t.Errorf("bucket counts not cumulative at %q", line)
				}
				lastCum = v
				if strings.Contains(line, `le="+Inf"`) {
					sawInf = true
					if v != 2 {
						t.Errorf("+Inf bucket = %d, want total count 2", v)
					}
				}
			}
		}
	}
	if !sawInf {
		t.Errorf("histogram rendered no +Inf bucket")
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("ct_total", "c.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", got)
	}
	if !strings.Contains(rec.Body.String(), "ct_total 1\n") {
		t.Errorf("handler body missing sample:\n%s", rec.Body.String())
	}
}

// TestRegistryConcurrency hammers every instrument kind from many
// goroutines while scraping — run with -race to prove safety.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	r.maxSeries = 8
	c := r.Counter("conc_total", "c.", "worker")
	g := r.Gauge("conc_gauge", "g.")
	h := r.Histogram("conc_seconds", "h.", nil, "worker")

	const workers = 16
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w) // exceeds the series cap on purpose
			for i := 0; i < iters; i++ {
				c.Inc(label)
				g.Add(1)
				h.Observe(float64(i)/1000, label)
				if i%100 == 0 {
					var b strings.Builder
					_ = r.WriteText(&b)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := g.Value(); got != workers*iters {
		t.Errorf("gauge = %v, want %d", got, workers*iters)
	}
	// Every increment landed somewhere: sum the distinct series from the
	// scrape (looking values up by over-cap labels would re-read the
	// overflow series once per label).
	var total float64
	for _, line := range strings.Split(scrape(t, r), "\n") {
		if !strings.HasPrefix(line, "conc_total{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		total += v
	}
	if total != workers*iters {
		t.Errorf("counter total = %v, want %d", total, workers*iters)
	}
}

// TestSeriesPublishRacesRecording adds series to families while other
// goroutines record into the ones already there and scrape: under -race it
// holds the lock-free lookup apart from every copy-and-publish, and
// afterwards every observation is counted exactly once, the series past
// the cap in the overflow series.
func TestSeriesPublishRacesRecording(t *testing.T) {
	r := NewRegistry()
	r.maxSeries = 40
	c := r.Counter("publish_total", "c.", "label")
	h := r.Histogram("publish_seconds", "h.", nil, "label")
	// The steady series is there before the writers can fill the cap;
	// published later, it would be one of the novel labels the overflow
	// series takes.
	c.Add(0, "steady")
	const writers, recorders, iters = 4, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				label := fmt.Sprintf("new-%d-%d", w, i%25) // 100 labels: past the cap
				c.Inc(label)
				h.Observe(0.01, label)
			}
		}(w)
	}
	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc("steady")
				h.Observe(0.01, "steady")
				if i%50 == 0 {
					var b strings.Builder
					_ = r.WriteText(&b)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value("steady"); got != recorders*iters {
		t.Errorf("steady series = %v, want %d", got, recorders*iters)
	}
	var total float64
	var series int
	for _, line := range strings.Split(scrape(t, r), "\n") {
		if !strings.HasPrefix(line, "publish_total{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		total += v
		series++
	}
	if total != (writers+recorders)*iters {
		t.Errorf("counter total = %v, want %d", total, (writers+recorders)*iters)
	}
	if series > 41 {
		t.Errorf("%d series, over the cap of 40 plus the overflow series", series)
	}
}

// TestRecordingAllocatesNothing: recording into a series that exists —
// every instrument kind, labeled and not — allocates nothing.
func TestRecordingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	r := NewRegistry()
	c := r.Counter("allocs_total", "c.", "model", "outcome")
	g := r.Gauge("allocs_gauge", "g.")
	h := r.Histogram("allocs_seconds", "h.", nil, "model")
	c.Inc("mistral:7b", "ok")
	h.Observe(0.01, "mistral:7b")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc("mistral:7b", "ok")
		c.Add(2, "mistral:7b", "ok")
		g.Set(1)
		g.Add(1)
		h.Observe(0.02, "mistral:7b")
	}); n != 0 {
		t.Fatalf("recording into existing series: %v allocations, want 0", n)
	}
}

// BenchmarkRecordParallel records into existing series from every P at
// once, the path Inc/Observe take on every query.
func BenchmarkRecordParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "c.", "model")
	h := r.Histogram("bench_seconds", "h.", nil, "model")
	models := []string{"llama3:8b", "mistral:7b", "phi3:mini"}
	for _, m := range models {
		c.Inc(m)
		h.Observe(0, m)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			m := models[i%len(models)]
			c.Inc(m)
			h.Observe(0.01, m)
		}
	})
}
