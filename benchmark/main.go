// Command benchmark is the repository's end-to-end benchmark: four fixed
// workloads driven through the real stack (HTTP → cache/flight → router →
// orchestrator → fleet → modeld over loopback → batch scheduler → SSE
// out) by a closed-loop load generator, nine named end-to-end metrics, a
// per-layer table from a separate traced run, and an A/A mode that sizes
// the regression bounds in BENCHMARK.json. README.md is the dictionary.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run; the last line is the result as JSON
//	benchmark                                                 every workload, both kinds of run
//	benchmark -aa K                                           two interleaved sets of K runs of the same binary
//	benchmark serve CONFIG                                    the system under test (started by the above)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// Defaults of a bare `benchmark`; BENCHMARK.json's run_seconds is the same
// number (smoke_test.go holds them together).
const (
	defaultSeed    = 1
	defaultSeconds = 10
)

func main() {
	// Two cores is what the frozen counts were sized on; more would change
	// what two closed-loop clients measure.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if len(os.Args) >= 3 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark serve:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", defaultSeconds, "run length the operation counts are sized for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	aa := flag.Int("aa", 0, "A/A: run the end-to-end benchmark as two interleaved sets of this many runs")
	out := flag.String("out", "benchmark/out", "directory for trace files and temporary data")
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark's contract, read by -aa for the bounds")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("environment: %s/%s, %d CPUs, GOMAXPROCS %d, %s\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	base := runConfig{
		Seed: *seed, Seconds: *seconds, Setups: setupsPerRun,
		Spawn: spawnSUT, OutDir: *out, Log: os.Stdout,
	}
	ctx := context.Background()

	switch {
	case *aa > 0:
		if err := runAA(ctx, base, *aa, *spec, *workload); err != nil {
			fatal(err)
		}
	case *workload != "":
		w, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		base.Spec = w
		rep, err := runOne(ctx, base, *trace)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !rep.Correct {
			os.Exit(1)
		}
	default:
		correct := true
		for _, w := range workloads {
			base.Spec = w
			for _, tr := range []int{0, 1} {
				rep, err := runOne(ctx, base, tr)
				if err != nil {
					fatal(err)
				}
				correct = correct && rep.Correct
			}
		}
		if !correct {
			fatal(fmt.Errorf("outputs were not correct; see VIOLATION lines above"))
		}
	}
}

// runOne is one run of one workload, its metrics made exactly the set
// BENCHMARK.json names for that kind of run.
func runOne(ctx context.Context, c runConfig, trace int) (report, error) {
	run, defs := c.endToEnd, endToEndMetrics
	if trace != 0 {
		run, defs = c.perLayer, perLayerMetrics
	}
	rep, err := run(ctx)
	if err != nil {
		return report{}, err
	}
	if rep.Metrics, err = conform(rep.Metrics, defs); err != nil {
		return report{}, err
	}
	c.printMetrics(rep.Metrics, defs)
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
