package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// A/A mode: the whole end-to-end benchmark as two interleaved sets of K
// runs of the same binary (A1 B1 A2 B2 …, run i of each set on seed
// base+i, as the driver varies the seed between runs). For every metric
// and workload it prints the two medians, their quartiles, each set's
// interquartile spread as a share of its median, and the gap between the
// medians as a share of the metric's bound — the two things the driver
// holds a benchmark to. The spreads are written beside the bounds to
// aa.json in the benchmark's directory, as the contract names it
// (BENCHMARK.json's own keys are fixed, so they cannot go there).

// contract is the part of BENCHMARK.json A/A mode reads.
type contract struct {
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(path string) (contract, error) {
	var c contract
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(data, &c)
}

// aaRow is one metric on one workload.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Bound    float64 `json:"bound"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	SpreadA  float64 `json:"spread_a"` // (q3-q1)/median
	SpreadB  float64 `json:"spread_b"`
	// GapShare is how much worse B's median is than A's, as a share of A's.
	GapShare float64 `json:"gap_share"`
	Within   bool    `json:"within_bound"`
}

func runAA(ctx context.Context, base runConfig, k int, specPath, only string) error {
	con, err := readContract(specPath)
	if err != nil {
		return fmt.Errorf("read %s: %w", specPath, err)
	}
	var rows []aaRow
	ok := true
	for _, w := range workloads {
		if only != "" && only != w.Name {
			continue
		}
		base.Spec = w
		values := [2]map[string][]float64{{}, {}}
		for i := 0; i < k; i++ {
			for set := range values {
				c := base
				c.Seed = base.Seed + int64(i)
				rep, err := runOne(ctx, c, 0)
				if err != nil {
					return err
				}
				if !rep.Correct {
					return fmt.Errorf("%s seed %d: outputs were not correct", w.Name, c.Seed)
				}
				for name, v := range rep.Metrics {
					values[set][name] = append(values[set][name], v.Value)
				}
			}
		}
		fmt.Printf("\nA/A %s, %d runs per set\n  %-20s %12s %12s %9s %9s %9s %8s\n", w.Name, k,
			"metric", "median A", "median B", "spread A", "spread B", "gap", "bound")
		for _, m := range con.EndToEnd {
			a, b := values[0][m.Name], values[1][m.Name]
			row := aaRow{
				Workload: w.Name, Metric: m.Name, Bound: m.Bound,
				MedianA: median(a), MedianB: median(b), SpreadA: spreadShare(a), SpreadB: spreadShare(b),
			}
			row.GapShare = ratio(row.MedianB-row.MedianA, row.MedianA)
			if m.Better == "higher" {
				row.GapShare = -row.GapShare
			}
			row.Within = row.GapShare <= m.Bound && max(row.SpreadA, row.SpreadB) <= m.Bound
			ok = ok && row.Within
			qa1, qa3 := quartiles(a)
			qb1, qb3 := quartiles(b)
			fmt.Printf("  %-20s %12.5g %12.5g %8.2f%% %8.2f%% %+8.2f%% %7.1f%%   A[%.5g, %.5g] B[%.5g, %.5g]\n",
				m.Name, row.MedianA, row.MedianB, 100*row.SpreadA, 100*row.SpreadB, 100*row.GapShare, 100*m.Bound,
				qa1, qa3, qb1, qb3)
			rows = append(rows, row)
		}
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if len(con.Paths) == 0 {
		return fmt.Errorf("%s names no paths", specPath)
	}
	path := filepath.Join(filepath.Dir(specPath), con.Paths[0], "aa.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nobserved spreads written to %s\n", path)
	if !ok {
		return fmt.Errorf("a metric's spread or A/A gap is outside its bound")
	}
	return nil
}
