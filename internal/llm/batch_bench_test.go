package llm

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"llmms/internal/truthfulqa"
)

// benchBatchConcurrency is the same-model fan-in the batch benchmark
// measures: the acceptance scenario is ≥8 concurrent queries hitting
// one model.
const benchBatchConcurrency = 8

// benchmarkBatchDecode drives waves of concurrent same-model
// generations through one engine and reports per-request decode
// wall-clock (p50_ms) and aggregate qps: the scheduler steps all requests
// together at ~2x one stream's per-token cost.
func benchmarkBatchDecode(b *testing.B) {
	// One llama3 decode step is about 0.5 ms at this scale, which keeps a
	// run short. The scale does not have to hide the host's timer
	// lateness: the scheduler paces on an absolute schedule (decodeClock),
	// so a late wake-up shortens the next sleep instead of stretching
	// every step.
	e := NewEngine(Options{
		Knowledge:    NewKnowledge(truthfulqa.Seed()),
		LatencyScale: 0.05,
	})
	defer e.Close()
	req := GenRequest{Model: ModelLlama3, Prompt: "Are bats blind?", MaxTokens: 24}

	var mu sync.Mutex
	lats := make([]time.Duration, 0, b.N*benchBatchConcurrency)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < benchBatchConcurrency; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				if _, _, err := e.GenerateAll(context.Background(), req); err != nil {
					b.Error(err)
					return
				}
				d := time.Since(t0)
				mu.Lock()
				lats = append(lats, d)
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	elapsed := time.Since(start)
	b.StopTimer()

	if b.Failed() || len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50 := float64(lats[len(lats)/2]) / float64(time.Millisecond)
	b.ReportMetric(p50, "p50_ms")
	b.ReportMetric(float64(len(lats))/elapsed.Seconds(), "qps")
}

// BenchmarkBatchDecode runs 8 concurrent same-model generations through
// the continuous batch scheduler. It is kept beside the end-to-end
// benchmark because no canonical workload or layer replay reaches this
// regime: two closed-loop clients over two daemons never put more than one
// sequence on a scheduler (llm.batch_mean_occupancy is 1.0), so only this
// shows what a step costs at K = 8.
func BenchmarkBatchDecode(b *testing.B) {
	b.Run("batch_on", benchmarkBatchDecode)
}
