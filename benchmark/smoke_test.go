package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs all four workloads, both kinds of run, at a fiftieth of
// their frozen counts against a stack inside this process, and asserts
// that every metric BENCHMARK.json names is printed exactly once per
// workload with its unit — so the benchmark cannot rot unnoticed.
//
// At this scale the cache and the router see too little traffic for the
// aggregate checks (every cache outcome seen, some query routed), so the
// test holds the per-response checks only; the full-size run holds both.
func TestSmoke(t *testing.T) {
	con, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			var log bytes.Buffer
			w.WarmupOps /= 50
			c := runConfig{
				Spec: w, Seed: 1, Seconds: defaultSeconds / 50.0, Setups: 1,
				Spawn: inprocSUT, OutDir: t.TempDir(), Log: &log,
			}
			rep, err := runOne(context.Background(), c, trace)
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s", w.Name, trace, err, log.String())
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace %d: %d of %d operations failed\n%s", w.Name, trace, rep.Failed, rep.Attempted, log.String())
			}
			want := map[string]string{}
			if trace == 0 {
				for _, m := range con.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range con.PerLayer {
					want[m.Name] = m.Unit
				}
				if _, err := os.Stat(filepath.Join(c.OutDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: traced run wrote no trace file: %v", w.Name, err)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics in the result, %d in BENCHMARK.json", w.Name, trace, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(name) + `\s+\S+ ` + regexp.QuoteMeta(unit) + `$`)
				if n := len(line.FindAllString(log.String(), -1)); n != 1 {
					t.Errorf("%s trace %d: metric %s printed %d times with unit %s, want once", w.Name, trace, name, n, unit)
				}
				if got, ok := rep.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace %d: result has %s = %+v, want unit %s", w.Name, trace, name, got, unit)
				}
			}
			// The result line is what the driver parses.
			if _, err := json.Marshal(rep); err != nil {
				t.Errorf("%s trace %d: result does not marshal: %v", w.Name, trace, err)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke took %v, want under 10s", d)
	}
}

// TestContractMatchesCode holds BENCHMARK.json and the code together: the
// same workloads, the same metric names and units, the same run length.
func TestContractMatchesCode(t *testing.T) {
	con, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if con.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the code's default is %v", con.RunSeconds, defaultSeconds)
	}
	if len(con.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(con.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if con.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in spec.go", i, con.Workloads[i].Name, w.Name)
		}
	}
	if len(con.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(con.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		m := con.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in spec.go", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(con.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(con.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		if m := con.PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in spec.go", i, m.Name, m.Unit, d.Name, d.Unit)
		}
	}
}
