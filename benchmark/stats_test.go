package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // sorted 1..5
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 3}, {0.25, 2}, {0.95, 4.8}, {0.99, 4.96},
	} {
		if got := percentile(xs, tc.q); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample reads %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The tail rule: report the highest percentile with at least ten samples
// beyond it. 700 samples support p95 (34 beyond) and not p99 (6 beyond).
func TestHighestPercentile(t *testing.T) {
	if got := samplesBeyond(700, 0.99); got != 6 {
		t.Errorf("samplesBeyond(700, p99) = %d, want 6", got)
	}
	if got := samplesBeyond(700, 0.95); got != 34 {
		t.Errorf("samplesBeyond(700, p95) = %d, want 34", got)
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{700, 0.95}, {5000, 0.99}, {150, 0.9}, {15, 0}, {22, 0.5}} {
		if got := highestPercentile(tc.n, 0.5, 0.9, 0.95, 0.99); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the driver computes a spread from.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)  -> [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("ten values: got %v, %v, want 2.75, 8.25", q1, q3)
	}
	// >>> statistics.quantiles([1.0, 1.1, 1.3, 1.6, 2.0], n=4) -> [1.05, 1.3, 1.8]
	q1, q3 = quartiles([]float64{1.0, 1.1, 1.3, 1.6, 2.0})
	if !near(q1, 1.05) || !near(q3, 1.8) {
		t.Errorf("five values: got %v, %v, want 1.05, 1.8", q1, q3)
	}
	// >>> statistics.quantiles([3, 5], n=4) -> [2.5, 4.0, 5.5]
	q1, q3 = quartiles([]float64{3, 5})
	if !near(q1, 2.5) || !near(q3, 5.5) {
		t.Errorf("two values: got %v, %v, want 2.5, 5.5", q1, q3)
	}
	if got := spreadShare([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 1.0) {
		t.Errorf("spreadShare = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestUnionIntervals(t *testing.T) {
	clip := interval{0, 100}
	got := unionIntervals([]interval{{50, 60}, {10, 20}, {15, 30}, {30, 35}, {90, 150}, {-5, 2}, {70, 70}}, clip)
	want := []interval{{0, 2}, {10, 35}, {50, 60}, {90, 100}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if n := totalLen(got); n != 2+25+10+10 {
		t.Errorf("totalLen = %d, want 47", n)
	}
	if n := intersectLen([]interval{{0, 10}, {20, 30}}, []interval{{5, 25}, {28, 40}}); n != 5+5+2 {
		t.Errorf("intersectLen = %d, want 12", n)
	}
}

// Self time on a hand-built tree: a parent of 100 with three children, two
// overlapping (parallel streams count once) and one outliving the parent
// (clipped).
func TestSelfTime(t *testing.T) {
	parent := interval{1000, 1100}
	children := []interval{{1010, 1040}, {1030, 1050}, {1090, 1200}}
	if got := selfTime(parent, children); got != 100-40-10 {
		t.Errorf("selfTime = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("childless selfTime = %d, want 100", got)
	}
}

// The layer attribution on a hand-built span tree of one query:
//
//	server.handle        [0 ................................ 1000]
//	fleet.call             [100 ........ 400]      [600 .. 800]
//	fleet.call (parallel)      [200 ........... 500]
//	modeld.client_call     [110 ...... 390]         [610 . 790]
//	modeld.client_call          [210 ........ 490]
//	modeld.handle             [150 ...................... 700]   (outlives its client call)
//
// Unions: fleet [100,500]+[600,800] = 600; client [110,490]+[610,790] =
// 560; daemon∩client = [150,490]+[610,700] = 430.
func TestAnalyseSpansHandBuiltTree(t *testing.T) {
	mk := func(id, parent int64, name string, start, end int64) span {
		return span{ID: id, Parent: parent, Query: "m0-7", Name: name, Start: start, End: end, Replica: "d0"}
	}
	spans := []span{
		mk(1, 0, spanServer, 0, 1000),
		mk(2, 1, spanFleet, 100, 400),
		mk(3, 1, spanFleet, 200, 500),
		mk(4, 1, spanFleet, 600, 800),
		mk(5, 2, spanClient, 110, 390),
		mk(6, 3, spanClient, 210, 490),
		mk(7, 4, spanClient, 610, 790),
		mk(8, 5, spanDaemon, 150, 700),
		// A warm-up query's spans are not measured.
		{ID: 9, Query: "w-3", Name: spanServer, Start: 0, End: 5000},
	}
	spans[7].Bytes = 4096
	st := analyseSpans(spans, map[string]float64{"m0-7": 0.0015})
	if st.Queries != 1 {
		t.Fatalf("queries = %d, want 1", st.Queries)
	}
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"server self", st.ServerSelfNs, 1000 - 600},
		{"fleet self", st.FleetSelfNs, 600 - 560},
		{"client self", st.ClientSelfNs, 560 - 430},
		{"daemon blocking", st.DaemonBlockingNs, 430},
		{"handle", st.HandleNs, 1000},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
	if sum := st.ServerSelfNs + st.FleetSelfNs + st.ClientSelfNs + st.DaemonBlockingNs; sum != st.HandleNs {
		t.Errorf("self times sum to %d, want the handle time %d", sum, st.HandleNs)
	}
	if len(st.FleetCallMs) != 3 || len(st.ClientCallMs) != 3 || len(st.DaemonHandleMs) != 1 {
		t.Errorf("calls fleet=%d client=%d daemon=%d, want 3 3 1", len(st.FleetCallMs), len(st.ClientCallMs), len(st.DaemonHandleMs))
	}
	if st.StreamBytes != 4096 || st.ReplicaCalls["d0"] != 3 {
		t.Errorf("bytes=%d replica calls=%v", st.StreamBytes, st.ReplicaCalls)
	}
	// 0.0015 ms client latency − 0.001 ms handle.
	if len(st.OverheadMs) != 1 || !near(st.OverheadMs[0], 0.0005) {
		t.Errorf("overhead = %v, want [0.0005]", st.OverheadMs)
	}
}

// A block's slowdown is the mean of the probes that ended inside it over
// the reference; the timings of an unpaced workload are divided by it and
// a paced workload's are not.
func TestSlowdownScalesUnpacedTimings(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	probes := []probeSample{
		{At: at(-5), CPU: 10 * probeRef}, // before the block
		{At: at(10), CPU: probeRef},
		{At: at(20), CPU: 2 * probeRef},
		{At: at(105), CPU: 10 * probeRef}, // after it
	}
	if got := slowdown(probes, at(0), at(100)); !near(got, 1.5) {
		t.Errorf("slowdown = %v, want 1.5", got)
	}
	if got := slowdown(probes, at(200), at(300)); got != 1 {
		t.Errorf("slowdown of a window without probes = %v, want 1", got)
	}

	done := outcome{Op: op{Kind: kindQuery}, Status: 200, Latency: 3 * time.Millisecond, End: at(50)}
	done.Result.QueryID = "q"
	ph := &phase{
		outs:   []outcome{done, done},
		blocks: []block{{From: at(0), To: at(100), CPU0: 1, CPU1: 1.006}},
		probes: probes,
	}
	unpaced, paced := workloadSpec{}, workloadSpec{LatencyScale: 0.13}
	if got := ph.timing(unpaced); !near(got.P50, 2) || !near(got.QPS, 30) || !near(got.CPUMs, 2) || !near(got.Slowdown, 1.5) {
		t.Errorf("unpaced timing = %+v, want p50 2 ms, 30 qps, 2 CPU ms at slowdown 1.5", got)
	}
	if got := ph.timing(paced); !near(got.P50, 3) || !near(got.QPS, 20) || !near(got.CPUMs, 3) || got.Slowdown != 1 {
		t.Errorf("paced timing = %+v, want p50 3 ms, 20 qps, 3 CPU ms unscaled", got)
	}
}
