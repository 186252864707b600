package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"llmms/internal/core"
	"llmms/internal/embedding"
	"llmms/internal/llm"
	"llmms/internal/qcache"
	"llmms/internal/rag"
	"llmms/internal/router"
	"llmms/internal/server"
	"llmms/internal/session"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
	"llmms/internal/vectordb"
)

// Layer replays: the workload's own inputs driven straight through one
// layer's public functions in this process, timed per call. They run
// after the SUT has exited, so they never compete with a measured phase.
// Uncontended, a faster layer saves a query at most calls × time per
// call; these are the "time per call" of that product. A layer a
// workload does not use reads 0 there.

// replaySample bounds how many of the workload's queries a replay uses.
const replaySample = 192

// layerMetrics collects replay results.
type layerMetrics map[string]metricValue

func (m layerMetrics) us(name string, v float64) { m[name] = metricValue{v, "us"} }

// perCall times n calls of f and returns microseconds per call.
func perCall(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start).Microseconds()) / float64(n)
}

// replayLayers returns every replay metric for the workload behind p.
func replayLayers(c runConfig, p *plan, ph *phase) layerMetrics {
	// The replay inputs: the first replaySample distinct queries of the
	// measured phase, and the answers the SUT gave them.
	var ops []op
	answers := make(map[string]string)
	seen := make(map[string]bool)
	for i := range ph.outs {
		o := &ph.outs[i]
		if o.Op.Kind != kindQuery || !o.completed() {
			continue
		}
		answers[o.Op.Query] = o.Result.Result.Answer
		if !seen[o.Op.Query] && len(ops) < replaySample {
			seen[o.Op.Query] = true
			ops = append(ops, o.Op)
		}
	}
	m := make(layerMetrics)
	if len(ops) == 0 {
		return m
	}
	ctx := context.Background()
	ds := truthfulqa.Generate(datasetSize, datasetSeed)
	enc := embedding.Default()
	models := server.DefaultSettings().EnabledModels

	// core, over an in-process unpaced engine: orchestration and scoring
	// with no network. The results also feed the router replay.
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(ds)})
	defer engine.Close()
	var runMs []float64
	results := make([]core.Result, len(ops))
	for i, o := range ops {
		cfg := core.DefaultConfig(models...)
		if o.MaxTokens > 0 {
			cfg.MaxTokens = o.MaxTokens
		}
		strategy := core.Strategy(server.DefaultSettings().Strategy)
		if o.Strategy != "" {
			strategy = core.Strategy(o.Strategy)
		}
		oc, err := core.New(engine, cfg)
		if err != nil {
			continue
		}
		start := time.Now()
		res, err := oc.Run(ctx, strategy, rag.BuildPrompt(rag.PromptParts{Question: o.Query}))
		if err == nil {
			runMs = append(runMs, ms(time.Since(start)))
			results[i] = res
		}
	}
	m["core.run_inproc_ms_p50"] = metricValue{median(runMs), "ms"}

	// llm: one model's whole answer, per token.
	tokens := 0
	genStart := time.Now()
	for i, o := range ops {
		_, last, err := engine.GenerateAll(ctx, llm.GenRequest{
			Model: models[i%len(models)], Prompt: rag.BuildPrompt(rag.PromptParts{Question: o.Query}), MaxTokens: 64,
		})
		if err == nil {
			tokens += last.EvalCount
		}
	}
	m.us("llm.generate_us_per_token", ratio(float64(time.Since(genStart).Microseconds()), float64(tokens)))

	// embedding: a whole answer at once, and chunk by chunk.
	m.us("embedding.encode_us", perCall(len(ops), func(i int) { enc.Encode(answers[ops[i].Query]) }))
	if acc, ok := embedding.NewAccumulator(enc); ok {
		chunks := 0
		start := time.Now()
		for _, o := range ops {
			acc.Reset()
			words := strings.Fields(answers[o.Query])
			for at := 0; at < len(words); at += 8 {
				acc.Add(strings.Join(words[at:min(at+8, len(words))], " ") + " ")
				_ = acc.Vector()
				chunks++
			}
		}
		m.us("embedding.accumulate_us_per_chunk", ratio(float64(time.Since(start).Microseconds()), float64(chunks)))
	}

	// telemetry: one span of the program's tracer, opened under a root,
	// attributed and ended.
	tracer := telemetry.NewTracer("bench")
	m.us("telemetry.span_us", perCall(len(ops)*16, func(i int) {
		rctx, root := tracer.StartRoot(ctx, "query")
		_, sp := telemetry.StartSpan(rctx, "child")
		sp.SetAttr("model", "m")
		sp.End(nil)
		root.End(nil)
	})/2)

	// qcache's gate, uncontended.
	gate := qcache.NewGate(8, 0, nil)
	m.us("qcache.gate_acquire_us", perCall(len(ops)*64, func(int) {
		if gate.Acquire(ctx, len(models)) == nil {
			gate.Release(len(models))
		}
	}))

	if c.Spec.Serving {
		replayCache(m, ops)
	}
	if c.Spec.Agent {
		if err := replayAgent(c, m, p, ops, results, answers); err != nil {
			c.logf("  layer replay failed: %v", err)
		}
	}
	return m
}

// replayCache times the answer cache: a put, an exact hit, a miss (which
// includes the semantic probe), and a coalesced follower's replay of a
// leader's buffered frames.
func replayCache(m layerMetrics, ops []op) {
	cache := qcache.New(qcache.Options{TTL: 10 * time.Minute})
	half := len(ops) / 2
	key := func(i int) qcache.Key { return qcache.Key{Query: ops[i].Query, Scope: "replay"} }
	m.us("qcache.put_us", perCall(half, func(i int) { cache.Put(key(i), i) }))
	m.us("qcache.get_hit_us", perCall(half, func(i int) { cache.Get(key(i)) }))
	m.us("qcache.get_miss_us", perCall(len(ops)-half, func(i int) { cache.Get(key(half + i)) }))

	// A typical recorded stream: 40 frames of 200 bytes.
	frame := qcache.Frame{Event: "chunk", Data: []byte(strings.Repeat("x", 200))}
	group := qcache.NewGroup(0)
	m.us("qcache.flight_replay_us", perCall(len(ops), func(i int) {
		leader, _ := group.Join(ops[i].Query)
		follower, _ := group.Join(ops[i].Query)
		for f := 0; f < 40; f++ {
			leader.Publish(frame)
		}
		leader.Finish(nil)
		follower.Replay(context.Background(), func(qcache.Frame) error { return nil })
	}))
}

// replayAgent times the layers only agent_sessions uses, on a durable
// database like the SUT's (WAL on, fsync off).
func replayAgent(c runConfig, m layerMetrics, p *plan, ops []op, results []core.Result, answers map[string]string) error {
	dir, err := os.MkdirTemp(c.OutDir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := vectordb.Open(dir, vectordb.OpenOptions{Sync: vectordb.SyncNone})
	if err != nil {
		return err
	}
	defer db.Close()
	docs, err := db.GetOrCreateCollection("documents", vectordb.CollectionConfig{})
	if err != nil {
		return err
	}

	// rag: ingest the preloaded corpus, retrieve for every query, build
	// the prompt.
	ingestor := rag.NewIngestor(docs, rag.ChunkOptions{})
	start := time.Now()
	for d := 0; d < p.Preload; d++ {
		if _, err := ingestor.IngestText(fmt.Sprintf("doc-%d", d), p.Docs[d].Name, p.Docs[d].Text); err != nil {
			return err
		}
	}
	m["rag.ingest_ms_per_doc"] = metricValue{ratio(ms(time.Since(start)), float64(p.Preload)), "ms"}
	topK := server.DefaultSettings().RAGTopK
	chunks := make([][]string, len(ops))
	m.us("rag.retrieve_us", perCall(len(ops), func(i int) {
		res, _ := rag.Retrieve(docs, ops[i].Query, topK, "")
		for _, r := range res {
			chunks[i] = append(chunks[i], r.Text)
		}
	}))
	m.us("rag.build_prompt_us", perCall(len(ops), func(i int) {
		rag.BuildPrompt(rag.PromptParts{Chunks: chunks[i], Question: ops[i].Query})
	}))

	// vectordb: queries alone, queries from two readers beside a writer,
	// and single upserts.
	query := func(i int) {
		_, _ = docs.Query(vectordb.QueryRequest{Text: ops[i%len(ops)].Query, TopK: topK})
	}
	m.us("vectordb.query_us", perCall(len(ops), query))
	upsert := func(i int) {
		_ = docs.Upsert(vectordb.Document{ID: fmt.Sprintf("replay#%d", i%64), Text: answers[ops[i%len(ops)].Query]})
	}
	m.us("vectordb.upsert_us", perCall(len(ops), upsert))
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				upsert(i)
			}
		}
	}()
	var readers sync.WaitGroup
	perReader := make([]float64, 2)
	for r := range perReader {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			perReader[r] = perCall(len(ops), query)
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	m.us("vectordb.query_us_g2", (perReader[0]+perReader[1])/2)

	// router, with its durable collection attached as in the SUT: train on
	// the in-process results, then predict.
	clusters, err := db.GetOrCreateCollection("route_clusters", vectordb.CollectionConfig{Shards: 1})
	if err != nil {
		return err
	}
	pred := router.NewPredictor(router.PredictorOptions{TopK: 1})
	pred.SetPersistence(clusters, func(error) {})
	m.us("router.observe_us", perCall(len(ops), func(i int) { pred.Observe(ops[i].Query, results[i]) }))
	pool := server.DefaultSettings().EnabledModels
	m.us("router.predict_us", perCall(len(ops), func(i int) { pred.Predict(ops[i].Query, pool) }))

	// session: eight-turn sessions like the workload's.
	store := session.NewStore(session.Options{})
	var contextNs, appendNs time.Duration
	turns, summarised := 0, 0
	for at := 0; at+sessionTurns <= len(ops); at += sessionTurns {
		id := store.Create("").ID
		for _, o := range ops[at : at+sessionTurns] {
			t0 := time.Now()
			summary, _, _ := store.Context(id, 0)
			t1 := time.Now()
			_, _ = store.Append(id, session.Message{Role: session.RoleUser, Content: o.Query})
			_, _ = store.Append(id, session.Message{Role: session.RoleAssistant, Content: answers[o.Query], Model: pool[0]})
			contextNs += t1.Sub(t0)
			appendNs += time.Since(t1)
			turns++
			if summary != "" {
				summarised++
			}
		}
	}
	m.us("session.context_us", ratio(float64(contextNs.Microseconds()), float64(turns)))
	m.us("session.append_us", ratio(float64(appendNs.Microseconds()), float64(turns)))
	m["session.summary_share"] = metricValue{ratio(float64(summarised), float64(turns)), "ratio"}
	return nil
}
