package main

import (
	"fmt"
	"time"

	"llmms/internal/server"
	"llmms/internal/vectordb"
)

// datasetSize and datasetSeed fix the knowledge base every engine and the
// generator share: truthfulqa.Generate(817, 1), the paper's 817 questions.
const (
	datasetSize = 817
	datasetSeed = 1
)

// clients is the number of closed-loop clients, each on its own keep-alive
// connection. Two, because the reference box has two cores: more waiting
// clients would only queue behind them.
const clients = 2

// fanoutBudget is λ_max for the fan-out workloads: EXPERIMENTS.md's
// binding budget, small enough that every query runs at least three
// rounds and pruning and early exit actually fire.
const fanoutBudget = 128

// workloadSpec fixes one workload: how the stack is configured (the
// deviations from the production defaults are part of the workload) and
// how many operations each phase runs. Counts are frozen per second of
// --seconds, so a run's inputs depend on its arguments and never on how
// fast the machine is.
type workloadSpec struct {
	Name string
	// OpsPerSecond × --seconds is the measured operation count (rounded to
	// whole sessions and pairs by the generator). Sized
	// once on the reference box so the measured phase lasts about
	// --seconds there.
	OpsPerSecond float64
	// WarmupOps is the fixed single-client warm-up, part of setup_s: sized
	// so that a set-up takes a little over three seconds.
	WarmupOps int
	// LatencyScale paces the engines' simulated decode; 0 is unpaced.
	LatencyScale float64
	// Serving turns the answer cache and coalescing on.
	Serving bool
	// Agent turns on RAG over a preloaded corpus, predictive routing,
	// sessions with reuse, durability and writes.
	Agent bool
}

var workloads = []workloadSpec{
	// LatencyScale 0.13 is the smallest at which the fastest model's decode
	// step still sleeps a millisecond (130 tokens/s: 7.7 ms × 0.13); shorter
	// sleeps measure the timer.
	{Name: "fanout_paced", OpsPerSecond: 21, WarmupOps: 34, LatencyScale: 0.13},
	{Name: "fanout_unpaced", OpsPerSecond: 450, WarmupOps: 1100},
	{Name: "repeat_mix", OpsPerSecond: 1000, WarmupOps: 2500, Serving: true},
	{Name: "agent_sessions", OpsPerSecond: 520, WarmupOps: 2000, Serving: true, Agent: true},
}

// scaled reports whether the workload's timings are reported at reference
// speed (speed.go). An unpaced workload's time is CPU, which a busy
// neighbour stretches; a paced workload's time is sleeps and timer
// wake-ups, which it does not, so scaling would only add the probe's noise.
func (w workloadSpec) scaled() bool { return w.LatencyScale == 0 }

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// serverOptions is the workload's part of server.Options; sut.go adds the
// engine, fleet and telemetry every workload shares.
func (w workloadSpec) serverOptions(dataDir string) server.Options {
	var o server.Options
	if w.Serving {
		o.Serving = server.ServingOptions{CacheTTL: 10 * time.Minute, Coalesce: true}
	}
	if w.Agent {
		o.Routing = server.RoutingOptions{TopK: 1}
		o.DataDir = dataDir
		// fsync time on a shared sandbox measures the disk, not the program.
		o.WALSync = vectordb.SyncNone
	}
	return o
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names (smoke_test.go holds the two together).
type metricDef struct{ Name, Unit string }

// endToEndMetrics are reported by a --trace 0 run.
var endToEndMetrics = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"first_chunk_p50_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"truthful_share", "ratio"},
	{"tokens_per_query", "tokens"},
	{"alloc_kb_per_query", "KiB"},
	{"heap_live_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayerMetrics are reported by a --trace 1 run, on every workload; a
// layer the workload does not use reads 0.
var perLayerMetrics = []metricDef{
	{"server.handle_ms_p50", "ms"},
	{"server.self_ms_p50", "ms"},
	{"server.http_overhead_ms_p50", "ms"},
	{"server.sse_frames_per_query", "count"},
	{"server.sse_bytes_per_query", "bytes"},
	{"server.upload_ms_p50", "ms"},
	{"qcache.exact_hit_share", "ratio"},
	{"qcache.semantic_hit_share", "ratio"},
	{"qcache.coalesced_share", "ratio"},
	{"qcache.miss_share", "ratio"},
	{"qcache.get_hit_us", "us"},
	{"qcache.get_miss_us", "us"},
	{"qcache.put_us", "us"},
	{"qcache.flight_replay_us", "us"},
	{"qcache.gate_acquire_us", "us"},
	{"router.routed_share", "ratio"},
	{"router.mean_width", "count"},
	{"router.predict_us", "us"},
	{"router.observe_us", "us"},
	{"core.rounds_per_query", "count"},
	{"core.chunks_per_query", "count"},
	{"core.prunes_per_query", "count"},
	{"core.early_exit_share", "ratio"},
	{"core.stall_ms_per_query", "ms"},
	{"core.run_inproc_ms_p50", "ms"},
	{"embedding.encode_us", "us"},
	{"embedding.accumulate_us_per_chunk", "us"},
	{"fleet.calls_per_query", "count"},
	{"fleet.call_ms_p50", "ms"},
	{"fleet.self_us_per_call", "us"},
	{"fleet.replica_imbalance", "ratio"},
	{"modeld.requests_per_query", "count"},
	{"modeld.client_call_ms_p50", "ms"},
	{"modeld.client_self_us_per_call", "us"},
	{"modeld.handle_ms_p50", "ms"},
	{"modeld.stream_bytes_per_query", "bytes"},
	{"llm.batch_steps_per_query", "count"},
	{"llm.batch_mean_occupancy", "count"},
	{"llm.batch_admission_wait_ms_mean", "ms"},
	{"llm.useful_token_share", "ratio"},
	{"llm.generate_us_per_token", "us"},
	{"rag.retrieve_us", "us"},
	{"rag.build_prompt_us", "us"},
	{"rag.ingest_ms_per_doc", "ms"},
	{"vectordb.query_us", "us"},
	{"vectordb.query_us_g2", "us"},
	{"vectordb.upsert_us", "us"},
	{"vectordb.wal_bytes_per_upload", "bytes"},
	{"session.context_us", "us"},
	{"session.append_us", "us"},
	{"session.summary_share", "ratio"},
	{"telemetry.spans_per_query", "count"},
	{"telemetry.span_us", "us"},
	{"harness.boot_s", "s"},
	{"harness.warmup_s", "s"},
	{"harness.client_cpu_ms_per_query", "ms"},
	{"harness.sut_cpu_ms_per_query", "ms"},
	{"harness.trace_overhead_share", "ratio"},
}

// conform makes a run's metrics exactly the defined set: a metric the run
// did not produce reads 0, and a metric outside the set is a bug.
func conform(got map[string]metricValue, defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if ok && v.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s has unit %q, defined as %q", d.Name, v.Unit, d.Unit)
		}
		out[d.Name] = metricValue{Value: v.Value, Unit: d.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not defined in spec.go", name)
		}
	}
	return out, nil
}
