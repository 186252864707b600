// Command llmms runs the LLM-MS platform: the application layer (web UI,
// query API with SSE streaming, sessions, RAG ingestion, settings) backed
// by the in-process simulated inference engine.
//
// Usage:
//
//	llmms [-addr :8080] [-questions 400] [-latency 0.02] [-dataset path]
//	      [-pprof] [-cache-ttl 5m] [-max-inflight 0] [-fleet 0] [-router-topk 0]
//	      [-data-dir path] [-wal-sync batch]
//	      [-log-level info] [-log-format text] [-version]
//
// Every argument is a flag: a stray argument, an unknown flag or a bad
// value (a -questions below 1 among them) is a one-line error and exit
// status 2.
//
// -questions sizes the engine's knowledge base (the simulated models can
// answer that many benchmark questions); -latency scales the simulated
// per-token decode delay so streaming is visibly incremental (0 disables
// sleeping entirely). Generations go through the engine's per-model
// continuous batch scheduler, so concurrent queries on one model decode
// together at ~1x–2x a single stream's step cost (see DESIGN.md
// "Continuous batching"). The last 256 completed query traces are served
// by /api/traces; -pprof mounts net/http/pprof under /debug/pprof/ (off by
// default). Prometheus-style metrics are always exposed on GET /metrics.
//
// The serving layer flags tune the cross-query cache and admission
// control (see DESIGN.md "Serving layer"): -cache-ttl enables the
// two-tier answer cache and in-flight coalescing (0 disables both); the
// cache holds 256 answers, and a rephrased query at cosine similarity
// 0.97 or more shares one. -max-inflight bounds concurrent orchestration
// weight, shedding excess load with 429 (0 = unlimited).
//
// The fleet flag puts the replicated model-fleet layer (see DESIGN.md
// "Model fleet") between orchestration and the engine: -fleet N runs N
// health-checked replicas per model with per-replica circuit breakers
// and least-loaded routing (0 disables the layer). With the fleet on,
// /readyz gains per-model "fleet:<model>" checks and GET /api/fleet
// reports per-replica state.
//
// The routing flags enable query-aware predictive routing (see
// DESIGN.md "Predictive routing"): -router-topk K learns per-cluster
// model rewards from completed queries and user feedback, and narrows
// confidently clustered multi-model queries to the predicted top K
// models — the narrowed width is what admission control charges, so
// -max-inflight capacity stretches further (0 keeps the full fan-out).
// GET /api/router reports the live cluster index. With -data-dir the
// cluster index is durable.
//
// The persistence flags (see DESIGN.md "Memory substrate"): -data-dir
// roots the durable memory substrate — RAG chunks and sessions live in a
// WAL-backed sharded vector database that recovers acknowledged writes
// after a crash, and the answer cache warm-starts from its snapshot on
// boot (empty disables persistence). -wal-sync picks the WAL durability
// policy (batch group-commit, always, none).
//
// The observability flags: -log-level and -log-format control the
// structured (log/slog) logger shared by the server, orchestrator, and
// fleet — every line stamped with query and trace IDs, and a query whose
// span tree takes 2 s or more logged at warn; -version prints the build
// version and Go runtime and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"

	"llmms/internal/cli"
	"llmms/internal/fleet"
	"llmms/internal/llm"
	"llmms/internal/qcache"
	"llmms/internal/server"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
	"llmms/internal/vectordb"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	questions := flag.Int("questions", 400, "knowledge base size (benchmark questions the models can answer)")
	latency := flag.Float64("latency", 0.02, "simulated decode latency scale (0 = no delay)")
	dataset := flag.String("dataset", "", "optional TruthfulQA JSON file to use as the knowledge base")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	cacheTTL := flag.Duration("cache-ttl", qcache.DefaultTTL, "answer cache TTL (0 disables caching and coalescing)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent orchestration weight bound, 429 past the wait queue (0 = unlimited)")
	fleetSize := flag.Int("fleet", 0, "replicas per model behind the fleet layer: breakers, health probes, least-loaded routing (0 = no fleet)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	routerTopK := flag.Int("router-topk", 0, "predictive routing: fan confidently clustered queries out to only the top-k models (0 = full fan-out always)")
	dataDir := flag.String("data-dir", "", "persist state under this directory: vector database with WAL crash recovery, sessions, answer-cache warm start, routing clusters (empty = in-memory only)")
	walSync := flag.String("wal-sync", "batch", "WAL durability: batch (group commit), always (fsync per write), none")
	showVersion := flag.Bool("version", false, "print version and exit")
	cli.Parse("llmms")
	if *questions < 1 {
		cli.Fatal("-questions must be at least 1, got %d", *questions)
	}

	if *showVersion {
		fmt.Printf("llmms %s %s\n", server.Version, telemetry.GoVersion())
		return
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		cli.Fatal("%v", err)
	}
	syncPolicy, err := vectordb.ParseSyncPolicy(*walSync)
	if err != nil {
		cli.Fatal("-wal-sync: %v", err)
	}

	ds, err := loadDataset(*dataset, *questions)
	if err != nil {
		log.Fatalf("llmms: %v", err)
	}
	engine := llm.NewEngine(llm.Options{
		Knowledge:    llm.NewKnowledge(ds),
		LatencyScale: *latency,
	})
	// Drain the per-model batch schedulers on shutdown so in-flight
	// generations finish before the process exits.
	defer engine.Close()
	tel := telemetry.New(telemetry.Options{})
	telemetry.RegisterBuildInfo(tel.Registry, server.Version)
	var pool *fleet.Pool
	if *fleetSize > 0 {
		pool, err = newFleet(engine, *fleetSize, tel, logger)
		if err != nil {
			log.Fatalf("llmms: %v", err)
		}
		pool.Start()
		defer pool.Close()
	}
	srv, err := server.NewServer(server.Options{
		Engine:      engine,
		Fleet:       pool,
		Telemetry:   tel,
		EnablePprof: *enablePprof,
		Logger:      logger,
		DataDir:     *dataDir,
		WALSync:     syncPolicy,
		Serving: server.ServingOptions{
			CacheTTL:    *cacheTTL,
			Coalesce:    *cacheTTL > 0,
			MaxInflight: *maxInflight,
		},
		Routing: server.RoutingOptions{TopK: *routerTopK},
	})
	if err != nil {
		log.Fatalf("llmms: %v", err)
	}
	// Persist sessions, the answer cache, and final vectordb snapshots on
	// graceful shutdown (no-op without -data-dir).
	defer func() {
		if err := srv.Close(); err != nil {
			log.Printf("llmms: close: %v", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Printf("LLM-MS %s listening on %s (%d questions in knowledge base)\n",
		server.Version, *addr, len(ds))
	fmt.Printf("open %s in a browser\n", browseURL(*addr))
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		log.Fatalf("llmms: %v", err)
	}
}

// browseURL is the URL a browser on this machine opens for a server
// listening on addr: an empty host is every interface, localhost among them.
func browseURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" {
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port)
}

func loadDataset(path string, n int) (truthfulqa.Dataset, error) {
	if path == "" {
		return truthfulqa.Generate(n, 1), nil
	}
	return truthfulqa.LoadJSON(path)
}

// newFleet builds a pool of n replicas per engine model. The simulated
// engine multiplexes every replica of a model (a real deployment would
// hand each replica its own modeld.Client); the fleet layer on top —
// breakers, probes, least-loaded routing — is exactly the
// production wiring. The probe is a one-token generation, the cheapest
// request that proves the replica can serve.
func newFleet(engine *llm.Engine, n int, tel *telemetry.Telemetry, logger *slog.Logger) (*fleet.Pool, error) {
	replicas := make(map[string][]fleet.Replica)
	for _, p := range engine.Profiles() {
		set := make([]fleet.Replica, n)
		for i := range set {
			set[i] = fleet.Replica{ID: fmt.Sprintf("r%d", i), Backend: engine}
		}
		replicas[p.Name] = set
	}
	return fleet.New(fleet.Config{
		Replicas:  replicas,
		Telemetry: tel,
		Logger:    logger,
		Probe: func(ctx context.Context, model string, r fleet.Replica) error {
			_, err := r.Backend.GenerateChunk(ctx, llm.ChunkRequest{
				Model: model, Prompt: "Question: ping?\nAnswer:", MaxTokens: 1,
			})
			return err
		},
	})
}
