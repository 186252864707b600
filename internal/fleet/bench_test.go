package fleet

import (
	"context"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"llmms/internal/llm"
)

// This file is the fleet layer's wall-clock evidence: in
// FleetDyingReplica, a replica that turned into a slow failure adds
// ~zero p50 latency once its breaker opens — the pool's p50 with a dying
// replica matches the all-healthy p50, instead of every other request
// eating the slow failure.

// sleepBackend answers after a fixed ctx-aware delay; with dying set it
// answers the delay with an error instead — a slow failure, the worst
// kind.
type sleepBackend struct {
	delay time.Duration
	dying atomic.Bool
}

func (s *sleepBackend) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return llm.Chunk{}, ctx.Err()
	case <-t.C:
	}
	if s.dying.Load() {
		return llm.Chunk{}, errDown
	}
	return llm.Chunk{Text: "ok", EvalCount: 1, Done: true}, nil
}

// reportPercentiles attaches wall-clock p50/p99 to the benchmark result
// alongside the default ns/op.
func reportPercentiles(b *testing.B, lats []time.Duration) {
	b.Helper()
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p := func(q float64) float64 {
		return float64(lats[int(float64(len(lats)-1)*q)]) / float64(time.Millisecond)
	}
	b.ReportMetric(p(0.50), "p50_ms")
	b.ReportMetric(p(0.99), "p99_ms")
}

func benchLoop(b *testing.B, p *Pool) {
	lats := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := p.GenerateChunk(context.Background(), testReq("m")); err != nil {
			b.Fatal(err)
		}
		lats = append(lats, time.Since(start))
	}
	b.StopTimer()
	reportPercentiles(b, lats)
}

// BenchmarkFleetDyingReplica compares a two-replica fleet where both
// replicas serve in ~1ms against the same fleet after one replica turned
// into a 20ms-then-error slow failure. The dying replica's breaker opens
// during warmup, so the measured p50 should match the healthy baseline:
// an ejected replica costs nothing per request.
func BenchmarkFleetDyingReplica(b *testing.B) {
	newPool := func(b *testing.B, r0 *sleepBackend) *Pool {
		p, err := New(Config{
			Replicas: map[string][]Replica{"m": {
				{ID: "r0", Backend: r0},
				{ID: "r1", Backend: &sleepBackend{delay: time.Millisecond}},
			}},
		})
		if err != nil {
			b.Fatal(err)
		}
		setBreakers(p, failureThreshold, time.Hour) // stays ejected for the whole run
		b.Cleanup(p.Close)
		return p
	}

	b.Run("healthy", func(b *testing.B) {
		p := newPool(b, &sleepBackend{delay: time.Millisecond})
		benchLoop(b, p)
	})

	b.Run("dying", func(b *testing.B) {
		r0 := &sleepBackend{delay: 20 * time.Millisecond}
		r0.dying.Store(true)
		p := newPool(b, r0)
		// Warmup: eat the slow failures until the breaker trips; callers
		// retry, so no request is ultimately lost.
		for replicaState2(b, p).State != "open" {
			_, _ = p.GenerateChunk(context.Background(), testReq("m"))
		}
		benchLoop(b, p)
	})
}

// replicaState2 is replicaState for benchmarks (testing.B), pinned to
// model "m" replica "r0".
func replicaState2(b *testing.B, p *Pool) ReplicaStatus {
	b.Helper()
	for _, ms := range p.Status() {
		for _, rs := range ms.Replicas {
			if ms.Model == "m" && rs.ID == "r0" {
				return rs
			}
		}
	}
	b.Fatal("no status for m/r0")
	return ReplicaStatus{}
}
