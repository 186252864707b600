package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llmms/internal/core"
	"llmms/internal/embedding"
	"llmms/internal/llm"
	"llmms/internal/metrics"
	"llmms/internal/truthfulqa"
)

// routeFamilies are the question categories whose templated queries
// embed into tight clusters AND whose simulated model skills genuinely
// diverge — the traffic shape predictive routing exploits. (A family
// whose models are near-tied, like Economics, correctly keeps falling
// back through the variance gate: there is no signal to route on.)
var routeFamilies = []string{"Geography", "Chemistry", "Arithmetic"}

// perModelLatency is the simulated transport+decode delay per generation
// call, roughly a small local model's chunk latency. It is what makes
// admitted concurrency, and so the fan-out width, show in qps.
const perModelLatency = 2 * time.Millisecond

// benchmarkRoute drives the full HTTP stack with family-clustered
// traffic over a fixed-latency backend and a MaxInflight gate, with
// predictive routing configured by the caller. It reports avg_width
// (mean fan-out width per query), qps, p50_ms, and quality_pct (the
// TruthfulQA truthfulness rate of the answers), so the routing win —
// narrower fan-out, more admitted concurrency — and its quality cost
// are measured together.
func benchmarkRoute(b *testing.B, routing RoutingOptions) {
	ds := truthfulqa.Generate(200, 1)
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(ds)})
	backend := core.NewFaultBackend(engine)
	fullWidth := len(DefaultSettings().EnabledModels)
	for _, m := range DefaultSettings().EnabledModels {
		backend.SetLatency(m, perModelLatency)
	}
	s, err := NewServer(Options{
		Engine:  engine,
		Backend: backend,
		Serving: ServingOptions{MaxInflight: 12},
		Routing: routing,
	})
	if err != nil {
		b.Fatal(err)
	}

	var work []truthfulqa.Item
	for _, it := range ds {
		for _, fam := range routeFamilies {
			if it.Category == fam {
				work = append(work, it)
			}
		}
	}
	if len(work) < 30 {
		b.Fatalf("only %d family questions in the dataset", len(work))
	}

	// post runs one query and returns the fan-out width the server
	// reported (X-Route; the configured full width when routing is off)
	// and the selected answer from the SSE result frame.
	post := func(q string) (int, string) {
		req := httptest.NewRequest("POST", "/api/query",
			strings.NewReader(fmt.Sprintf(`{"query":%q,"strategy":"mab"}`, q)))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Errorf("query status = %d", w.Code)
			return 0, ""
		}
		width := fullWidth
		if h := w.Header().Get("X-Route"); h != "" {
			if _, ws, ok := strings.Cut(h, ":"); ok {
				if n, err := strconv.Atoi(ws); err == nil {
					width = n
				}
			}
		}
		answer := ""
		for _, frame := range strings.Split(w.Body.String(), "\n\n") {
			data, ok := strings.CutPrefix(frame, "event: result\ndata: ")
			if !ok {
				continue
			}
			var env struct {
				Result core.Result `json:"result"`
			}
			if json.Unmarshal([]byte(data), &env) == nil {
				answer = env.Result.Answer
			}
		}
		return width, answer
	}

	// Warmup trains the cluster index: the first passes run full-pool
	// fallbacks whose outcomes build each family's reward history toward
	// confidence. With routing off this is plain cache-less warmup, so
	// both variants measure the same steady state.
	for pass := 0; pass < 3; pass++ {
		for _, it := range work {
			post(it.Question)
		}
	}

	scorer := metrics.NewScorer(embedding.Default(), metrics.RewardWeights{})
	var seq atomic.Int64
	var widthSum, truthful, answered atomic.Int64
	var mu sync.Mutex
	lats := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			it := work[int(seq.Add(1))%len(work)]
			t0 := time.Now()
			width, answer := post(it.Question)
			d := time.Since(t0)
			if width == 0 {
				return
			}
			widthSum.Add(int64(width))
			answered.Add(1)
			if scorer.Truthful(answer, it) {
				truthful.Add(1)
			}
			mu.Lock()
			lats = append(lats, d)
			mu.Unlock()
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()

	if b.Failed() || answered.Load() == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	b.ReportMetric(float64(widthSum.Load())/float64(answered.Load()), "avg_width")
	b.ReportMetric(float64(truthful.Load())/float64(answered.Load())*100, "quality_pct")
	b.ReportMetric(float64(lats[len(lats)/2])/float64(time.Millisecond), "p50_ms")
	b.ReportMetric(float64(len(lats))/elapsed.Seconds(), "qps")
}

// BenchmarkServeRoute is the predictive-routing benchmark behind `make
// bench-route` (BENCH_route.json): the same family-clustered workload
// with routing off (every query fans out to the full pool) and on
// (confident clusters narrow to top-1 plus ε-probes). The acceptance
// bounds: avg_width down ≥40%, qps up ≥1.5x, quality_pct within 2
// points.
func BenchmarkServeRoute(b *testing.B) {
	b.Run("route_off", func(b *testing.B) { benchmarkRoute(b, RoutingOptions{}) })
	b.Run("route_on", func(b *testing.B) { benchmarkRoute(b, RoutingOptions{TopK: 1}) })
}
