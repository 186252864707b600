package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"llmms/internal/embedding"
	"llmms/internal/metrics"
	"llmms/internal/truthfulqa"
)

// runConfig is one invocation of the benchmark on one workload.
type runConfig struct {
	Spec    workloadSpec
	Seed    int64
	Seconds float64
	// Setups is how many times set-up runs; setup_s is their median.
	Setups int
	// Spawn starts a SUT: spawnSUT (a child process) outside tests.
	Spawn func(sutConfig) (*sutProc, error)
	// OutDir receives trace files and the durable workload's data.
	OutDir string
	// Log receives the human-readable report.
	Log io.Writer
}

// runDeadline bounds one invocation; operations not sent by then fail.
// The driver allows 180 s.
const runDeadline = 150 * time.Second

// setupsPerRun is how many times a driver run sets up: set-up is short,
// so one reading is noisy; the median of three is not.
const setupsPerRun = 3

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (c runConfig) counts() (measured, warmup int) {
	measured = int(math.Round(c.Spec.OpsPerSecond * c.Seconds))
	return max(measured, 4*clients), max(c.Spec.WarmupOps, 4)
}

func (c runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.Log, format+"\n", args...)
}

// ready is a SUT that has been set up: booted, pre-loaded and warmed.
type ready struct {
	proc    *sutProc
	docIDs  *docStore
	dataDir string
	setupS  float64 // boot, pre-load and warm-up
	bootS   float64 // of which: spawn to /readyz
}

func (r *ready) stop() error {
	err := r.proc.stop()
	if r.dataDir != "" {
		if rmErr := os.RemoveAll(r.dataDir); err == nil {
			err = rmErr
		}
	}
	return err
}

// setUp starts a SUT and brings it to the first measured request: boot to
// /readyz, pre-load the corpus, run the fixed warm-up on one client. The
// caller adds the plan's generation time to setupS.
func (c runConfig) setUp(ctx context.Context, p *plan, traced bool) (*ready, error) {
	start := time.Now()
	cfg := sutConfig{Workload: c.Spec.Name, Traced: traced}
	if c.Spec.Agent {
		dir, err := os.MkdirTemp(c.OutDir, "data-")
		if err != nil {
			return nil, err
		}
		cfg.DataDir = dir
	}
	proc, err := c.Spawn(cfg)
	if err != nil {
		os.RemoveAll(cfg.DataDir)
		return nil, err
	}
	r := &ready{proc: proc, dataDir: cfg.DataDir, docIDs: &docStore{ids: make([]string, len(p.Docs))}}
	fail := func(err error) (*ready, error) {
		_ = r.stop()
		return nil, err
	}
	if err := waitReady(ctx, proc.info.Server); err != nil {
		return fail(err)
	}
	r.bootS = time.Since(start).Seconds()

	cl := newClient(proc.info.Server, p, r.docIDs)
	defer cl.close()
	var setupOps []op
	for d := 0; d < p.Preload; d++ {
		setupOps = append(setupOps, op{Kind: kindUpload, Class: classWrite, Item: -1, Doc: d})
	}
	setupOps = append(setupOps, p.Warmup...)
	for _, o := range cl.unit(ctx, "w", setupOps, nil) {
		if bad := checkOutcome(c.Spec, &o); len(bad) > 0 {
			return fail(fmt.Errorf("set-up operation %s failed: %v", o.Query, bad))
		}
	}
	r.setupS = time.Since(start).Seconds()
	return r, nil
}

func waitReady(ctx context.Context, base string) error {
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("SUT not ready: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// phase is one measured phase on one SUT, with what was read around it.
type phase struct {
	outs   []outcome
	counts counts
	// blocks are the phase's blocks (client.go), wall the sum of their
	// lengths, probes the speedometer's samples over the phase.
	blocks []block
	wall   time.Duration
	probes []probeSample
	// clientCPU is the CPU seconds this process spent during the phase.
	clientCPU     float64
	before, after sutStats
	heapBytes     uint64
	// metricsBefore/After are the server's /metrics; daemonBefore/After
	// the daemons' pages merged.
	metricsBefore, metricsAfter map[string]float64
	daemonBefore, daemonAfter   map[string]float64
	summarised                  int // sessions with a summary, after the phase
	violations                  []string
	// tracedSpans is the mean span count of the program's own stored
	// traces (perLayer fills it; the end-to-end run does not ask).
	tracedSpans float64
}

func scrapeDaemons(info sutInfo) (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, d := range info.Daemons {
		m, err := scrape(d + "/metrics")
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// measure runs the plan's measured phase against a set-up SUT and checks
// every response.
func (c runConfig) measure(ctx context.Context, r *ready, p *plan) (*phase, error) {
	info := r.proc.info
	ph := &phase{}
	var err error
	if ph.metricsBefore, err = scrape(info.Server + "/metrics"); err != nil {
		return nil, err
	}
	if ph.daemonBefore, err = scrapeDaemons(info); err != nil {
		return nil, err
	}
	if err := getJSON(info.Server+"/bench/stats", &ph.before); err != nil {
		return nil, err
	}
	cpu0 := selfCPUSeconds()
	sp := startSpeedometer()
	units, blocks, err := runUnits(ctx, info.Server, p, r.docIDs, func() (float64, error) {
		var st sutStats
		err := getJSON(info.Server+"/bench/stats?mem=0", &st)
		return st.CPUSeconds, err
	})
	ph.probes = sp.stop()
	if err != nil {
		return nil, err
	}
	ph.blocks = blocks
	for _, outs := range units {
		ph.outs = append(ph.outs, outs...)
	}
	for _, b := range blocks {
		ph.wall += b.To.Sub(b.From)
	}
	ph.clientCPU = selfCPUSeconds() - cpu0
	if err := getJSON(info.Server+"/bench/stats", &ph.after); err != nil {
		return nil, err
	}

	if ph.metricsAfter, err = scrape(info.Server + "/metrics"); err != nil {
		return nil, err
	}
	if ph.daemonAfter, err = scrapeDaemons(info); err != nil {
		return nil, err
	}
	if c.Spec.Agent {
		var sessions []struct {
			Summary string `json:"summary"`
		}
		if err := getJSON(info.Server+"/api/sessions", &sessions); err != nil {
			return nil, err
		}
		for _, s := range sessions {
			if s.Summary != "" {
				ph.summarised++
			}
		}
	}

	// The phase has quiesced (closed loop: every request is answered);
	// retained heap is read after the SUT has collected twice.
	var settled sutStats
	if err := getJSON(info.Server+"/bench/stats?gc=1", &settled); err != nil {
		return nil, err
	}
	ph.heapBytes = settled.HeapAllocBytes

	for i := range ph.outs {
		ph.outs[i].Violations = checkOutcome(c.Spec, &ph.outs[i])
	}
	ph.counts = tally(ph.outs)
	ph.violations = checkWorkload(c.Spec, ph.counts, ph.summarised)
	return ph, nil
}

// problems lists up to a few violations for the log.
func (ph *phase) problems() []string {
	out := append([]string(nil), ph.violations...)
	for i := range ph.outs {
		for _, v := range ph.outs[i].Violations {
			if len(out) < 8 {
				out = append(out, fmt.Sprintf("%s (%s %s): %s", ph.outs[i].Query, ph.outs[i].Op.Kind, ph.outs[i].Op.Class, v))
			}
		}
	}
	return out
}

func (ph *phase) correct() bool { return ph.counts.Failed == 0 && len(ph.violations) == 0 }

// latencies returns the completed queries' latency and first-chunk times
// in milliseconds.
func (ph *phase) latencies() (lat, first []float64) {
	for i := range ph.outs {
		o := &ph.outs[i]
		if !o.completed() {
			continue
		}
		lat = append(lat, ms(o.Latency))
		if o.FirstChunk > 0 {
			first = append(first, ms(o.FirstChunk))
		}
	}
	return lat, first
}

// truthfulShare scores every completed query's answer against its item.
func (ph *phase) truthfulShare() float64 {
	ds := truthfulqa.Generate(datasetSize, datasetSeed)
	scorer := metrics.NewScorer(embedding.Default(), metrics.RewardWeights{})
	type key struct {
		item   int
		answer string
	}
	memo := make(map[key]bool)
	truthful, n := 0, 0
	for i := range ph.outs {
		o := &ph.outs[i]
		if !o.completed() {
			continue
		}
		k := key{o.Op.Item, o.Result.Result.Answer}
		t, ok := memo[k]
		if !ok {
			t = scorer.Truthful(k.answer, ds[k.item])
			memo[k] = t
		}
		n++
		if t {
			truthful++
		}
	}
	return ratio(float64(truthful), float64(n))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// timing is a phase's timing metrics: each the median over the phase's
// blocks (client.go) of the block's own value, which for an unpaced
// workload is scaled to reference speed (speed.go).
type timing struct {
	P50, P95, FirstP50 float64 // ms
	QPS                float64 // completed queries per second
	CPUMs              float64 // SUT CPU ms per completed query
	Slowdown           float64 // median over the blocks; 1 when paced
	Blocks             int
	Samples            int // latency samples in the phase
	BlockSamples       int // latency samples in the smallest block
}

func (ph *phase) timing(spec workloadSpec) timing {
	t := timing{Blocks: len(ph.blocks)}
	var p50s, p95s, firsts, qps, cpu, slow []float64
	for b, bl := range ph.blocks {
		var lat, first []float64
		for i := range ph.outs {
			// No request is in flight between blocks, so a block's
			// queries are those that ended inside it.
			o := &ph.outs[i]
			if !o.completed() || o.End.Before(bl.From) || o.End.After(bl.To) {
				continue
			}
			lat = append(lat, ms(o.Latency))
			if o.FirstChunk > 0 {
				first = append(first, ms(o.FirstChunk))
			}
		}
		t.Samples += len(lat)
		if b == 0 || len(lat) < t.BlockSamples {
			t.BlockSamples = len(lat)
		}
		s := 1.0
		if spec.scaled() {
			s = slowdown(ph.probes, bl.From, bl.To)
		}
		slow = append(slow, s)
		p50s = append(p50s, median(lat)/s)
		p95s = append(p95s, percentile(lat, 0.95)/s)
		firsts = append(firsts, median(first)/s)
		qps = append(qps, s*ratio(float64(len(lat)), bl.To.Sub(bl.From).Seconds()))
		cpu = append(cpu, ratio((bl.CPU1-bl.CPU0)*1e3, float64(len(lat)))/s)
	}
	t.P50, t.P95, t.FirstP50 = median(p50s), median(p95s), median(firsts)
	t.QPS, t.CPUMs, t.Slowdown = median(qps), median(cpu), median(slow)
	return t
}

// timedSetUp generates the plan and sets a SUT up, and returns how long
// the two took: setup_s, at reference speed when the workload is unpaced.
func (c runConfig) timedSetUp(ctx context.Context, measured, warmup int) (*plan, *ready, float64, error) {
	sp := startSpeedometer()
	start := time.Now()
	p, err := generate(c.Spec, c.Seed, measured, warmup)
	var r *ready
	if err == nil {
		r, err = c.setUp(ctx, p, false)
	}
	end := time.Now()
	probes := sp.stop()
	if err != nil {
		return nil, nil, 0, err
	}
	seconds := end.Sub(start).Seconds()
	if c.Spec.scaled() {
		seconds /= slowdown(probes, start, end)
	}
	return p, r, seconds, nil
}

// endToEnd is a --trace 0 run: set up setupsPerRun times, measure on the
// last SUT, report the end-to-end metrics.
func (c runConfig) endToEnd(ctx context.Context) (report, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	measured, warmup := c.counts()
	var setups []float64
	var r *ready
	var p *plan
	for i := 0; i < c.Setups; i++ {
		if r != nil {
			if err := r.stop(); err != nil {
				return report{}, err
			}
		}
		var seconds float64
		var err error
		if p, r, seconds, err = c.timedSetUp(ctx, measured, warmup); err != nil {
			return report{}, err
		}
		setups = append(setups, seconds)
	}
	ph, err := c.measure(ctx, r, p)
	stopErr := r.stop()
	if err != nil {
		return report{}, err
	}
	if stopErr != nil {
		return report{}, stopErr
	}

	t := ph.timing(c.Spec)
	n := float64(ph.counts.Completed)
	rep := report{
		Correct: ph.correct(), Attempted: ph.counts.Attempted, Failed: ph.counts.Failed,
		Metrics: map[string]metricValue{
			"latency_p50_ms":     {t.P50, "ms"},
			"latency_p95_ms":     {t.P95, "ms"},
			"first_chunk_p50_ms": {t.FirstP50, "ms"},
			"throughput_qps":     {t.QPS, "1/s"},
			"truthful_share":     {ph.truthfulShare(), "ratio"},
			"tokens_per_query":   {ratio(float64(ph.counts.TokensSpent), n), "tokens"},
			"alloc_kb_per_query": {ratio(float64(ph.after.TotalAllocBytes-ph.before.TotalAllocBytes)/1024, n), "KiB"},
			"heap_live_mb":       {float64(ph.heapBytes) / (1 << 20), "MiB"},
			"setup_s":            {median(setups), "s"},
		},
	}
	c.logf("workload %s seed %d: plan %s, %d measured operations (%d queries completed) in %.2f s; set-ups %.3v s",
		c.Spec.Name, c.Seed, p.hash()[:12], ph.counts.Attempted, ph.counts.Completed, ph.wall.Seconds(), setups)
	if c.Spec.scaled() {
		c.logf("  timings and set-ups are at reference speed; the machine ran at %.3f of it (median over blocks)", 1/t.Slowdown)
	}
	c.logf("  timings are medians over %d blocks; %d latency samples, %d in the smallest block, where p95 has %d samples beyond it (highest percentile with ten beyond: p%.0f)",
		t.Blocks, t.Samples, t.BlockSamples, samplesBeyond(t.BlockSamples, 0.95),
		100*highestPercentile(t.BlockSamples, 0.5, 0.9, 0.95, 0.99))
	c.logf("  error_share %.5f (%d of %d operations failed, were refused or broke a check)",
		ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Failed, rep.Attempted)
	for _, v := range ph.problems() {
		c.logf("  VIOLATION %s", v)
	}
	return rep, nil
}

// printMetrics prints every defined metric by name with its unit.
func (c runConfig) printMetrics(m map[string]metricValue, defs []metricDef) {
	for _, d := range defs {
		c.logf("  %-36s %14.6g %s", d.Name, m[d.Name].Value, d.Unit)
	}
}

// writeTrace writes a traced run's spans to OutDir/trace-<workload>.json.
func (c runConfig) writeTrace(spans []span) error {
	if err := os.MkdirAll(c.OutDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.OutDir, "trace-"+c.Spec.Name+".json"), data, 0o644)
}

// traceShare is the part of the measured operation list a --trace 1 run
// replays, once untraced and once traced.
const traceShare = 0.5

// perLayer is a --trace 1 run: the first traceShare of the operation list
// on an untraced SUT (counts, and the latency the traced pass is compared
// to), the same operations on a traced SUT (spans), then the layer
// replays in this process once the SUT has exited.
func (c runConfig) perLayer(ctx context.Context) (report, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	measured, warmup := c.counts()
	p, err := generate(c.Spec, c.Seed, measured, warmup)
	if err != nil {
		return report{}, err
	}
	cut := int(float64(len(p.Units)) * traceShare)
	for cut < len(p.Units) && p.Units[cut][0].Barrier == 2 {
		cut++ // never between the halves of a pair
	}
	p.Units = p.Units[:cut]

	pass := func(traced bool) (*ready, *phase, []span, error) {
		r, err := c.setUp(ctx, p, traced)
		if err != nil {
			return nil, nil, nil, err
		}
		ph, err := c.measure(ctx, r, p)
		var spans []span
		if err == nil && traced {
			err = getJSON(r.proc.info.Server+"/bench/spans", &spans)
		}
		if err == nil && !traced {
			ph.tracedSpans, err = spansPerQuery(r.proc.info.Server)
		}
		if stopErr := r.stop(); err == nil {
			err = stopErr
		}
		return r, ph, spans, err
	}
	plainReady, plain, _, err := pass(false)
	if err != nil {
		return report{}, err
	}
	_, traced, spans, err := pass(true)
	if err != nil {
		return report{}, err
	}
	if err := c.writeTrace(spans); err != nil {
		return report{}, err
	}

	latencyMs := make(map[string]float64)
	for i := range traced.outs {
		if o := &traced.outs[i]; o.completed() {
			latencyMs[o.Query] = ms(o.Latency)
		}
	}
	st := analyseSpans(spans, latencyMs)
	plainLat, _ := plain.latencies()
	tracedLat, _ := traced.latencies()

	cn := plain.counts
	done, orch := float64(cn.Completed), float64(cn.Orchestrated)
	delta := func(after, before map[string]float64, family string) float64 {
		return familySum(after, family) - familySum(before, family)
	}
	missShare := 0.0 // a workload without the cache has no cache outcomes, misses included
	if c.Spec.Serving {
		missShare = ratio(orch, done)
	}
	m := map[string]metricValue{
		"server.handle_ms_p50":        {median(st.HandleMs), "ms"},
		"server.self_ms_p50":          {median(st.ServerSelfMs), "ms"},
		"server.http_overhead_ms_p50": {median(st.OverheadMs), "ms"},
		"server.sse_frames_per_query": {ratio(float64(cn.Frames), done), "count"},
		"server.sse_bytes_per_query":  {ratio(float64(cn.Bytes), done), "bytes"},
		"server.upload_ms_p50":        {median(cn.UploadMs), "ms"},

		"qcache.exact_hit_share":    {ratio(float64(cn.Exact), done), "ratio"},
		"qcache.semantic_hit_share": {ratio(float64(cn.Semantic), done), "ratio"},
		"qcache.coalesced_share":    {ratio(float64(cn.Coalesced), done), "ratio"},
		"qcache.miss_share":         {missShare, "ratio"},

		"router.routed_share": {ratio(float64(cn.Routed), orch), "ratio"},
		"router.mean_width":   {ratio(float64(cn.WidthSum), orch), "count"},

		"core.rounds_per_query":   {ratio(float64(cn.Rounds), orch), "count"},
		"core.chunks_per_query":   {ratio(float64(cn.Chunks), orch), "count"},
		"core.prunes_per_query":   {ratio(float64(cn.Prunes), orch), "count"},
		"core.early_exit_share":   {ratio(float64(cn.EarlyExits), orch), "ratio"},
		"core.stall_ms_per_query": {ratio(float64(cn.StallNs)/1e6, orch), "ms"},

		"fleet.calls_per_query":   {ratio(float64(len(st.FleetCallMs)), float64(st.Queries)), "count"},
		"fleet.call_ms_p50":       {median(st.FleetCallMs), "ms"},
		"fleet.self_us_per_call":  {ratio(float64(st.FleetSelfNs)/1e3, float64(len(st.FleetCallMs))), "us"},
		"fleet.replica_imbalance": {st.imbalance(), "ratio"},

		"modeld.requests_per_query":      {ratio(float64(len(st.DaemonHandleMs)), float64(st.Queries)), "count"},
		"modeld.client_call_ms_p50":      {median(st.ClientCallMs), "ms"},
		"modeld.client_self_us_per_call": {ratio(float64(st.ClientSelfNs)/1e3, float64(len(st.ClientCallMs))), "us"},
		"modeld.handle_ms_p50":           {median(st.DaemonHandleMs), "ms"},
		"modeld.stream_bytes_per_query":  {ratio(float64(st.StreamBytes), float64(st.Queries)), "bytes"},

		"llm.batch_steps_per_query": {ratio(float64(plain.after.BatchSteps-plain.before.BatchSteps), orch), "count"},
		"llm.batch_mean_occupancy": {ratio(float64(plain.after.BatchDecoded-plain.before.BatchDecoded),
			float64(plain.after.BatchSteps-plain.before.BatchSteps)), "count"},
		"llm.batch_admission_wait_ms_mean": {1e3 * ratio(
			delta(plain.daemonAfter, plain.daemonBefore, "llmms_batch_admission_wait_seconds_sum"),
			delta(plain.daemonAfter, plain.daemonBefore, "llmms_batch_admission_wait_seconds_count")), "ms"},
		"llm.useful_token_share": {ratio(float64(cn.TokensSpent),
			float64(plain.after.TokensDecoded-plain.before.TokensDecoded)), "ratio"},

		"vectordb.wal_bytes_per_upload": {ratio(
			plain.metricsAfter[`llmms_vectordb_wal_bytes_total{collection="documents"}`]-
				plain.metricsBefore[`llmms_vectordb_wal_bytes_total{collection="documents"}`],
			float64(cn.Uploads)), "bytes"},

		"telemetry.spans_per_query": {plain.tracedSpans, "count"},

		"harness.boot_s":                  {plainReady.bootS, "s"},
		"harness.warmup_s":                {plainReady.setupS - plainReady.bootS, "s"},
		"harness.client_cpu_ms_per_query": {ratio(plain.clientCPU*1e3, done), "ms"},
		"harness.sut_cpu_ms_per_query":    {plain.timing(c.Spec).CPUMs, "ms"},
		"harness.trace_overhead_share":    {ratio(median(tracedLat), median(plainLat)) - 1, "ratio"},
	}
	for name, v := range replayLayers(c, p, plain) {
		m[name] = v
	}

	rep := report{
		Correct:   plain.correct() && traced.correct(),
		Attempted: plain.counts.Attempted + traced.counts.Attempted,
		Failed:    plain.counts.Failed + traced.counts.Failed,
		Metrics:   m,
	}
	c.logf("workload %s seed %d: plan %s, %d operations untraced in %.2f s, the same traced in %.2f s; %d spans in %s",
		c.Spec.Name, c.Seed, p.hash()[:12], plain.counts.Attempted, plain.wall.Seconds(), traced.wall.Seconds(),
		len(spans), filepath.Join(c.OutDir, "trace-"+c.Spec.Name+".json"))
	for _, v := range append(plain.problems(), traced.problems()...) {
		c.logf("  VIOLATION %s", v)
	}
	printLayerTable(c.Log, c.Spec.Name, st)
	return rep, nil
}

// spansPerQuery reads the program's own stored traces for the newest
// orchestrated queries and averages their span counts.
func spansPerQuery(base string) (float64, error) {
	var list []struct {
		ID string `json:"id"`
	}
	if err := getJSON(base+"/api/traces?limit=32", &list); err != nil {
		return 0, err
	}
	total := 0
	for _, t := range list {
		var tr struct {
			Spans []json.RawMessage `json:"spans"`
		}
		if err := getJSON(base+"/api/traces/"+t.ID, &tr); err != nil {
			return 0, err
		}
		total += len(tr.Spans)
	}
	return ratio(float64(total), float64(len(list))), nil
}
