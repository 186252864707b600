// Command modeld runs the standalone model daemon: an Ollama-compatible
// HTTP server (NDJSON streaming /api/generate, /api/embed, /api/tags,
// /api/show, /api/ps, /api/gpu, plus Prometheus-style metrics on
// /metrics) in front of the simulated inference engine. It stands in for "Ollama daemon 0.4.5" in the paper's
// computation layer, so the orchestrator — or any Ollama client — can
// drive the simulated models over HTTP.
//
// Usage:
//
//	modeld [-addr :11434] [-questions 400] [-latency 0.02]
//	       [-data-dir path] [-wal-sync batch]
//	       [-log-level info] [-log-format text] [-pprof] [-version]
//
// The daemon participates in distributed tracing: requests carrying a
// W3C traceparent header join the caller's trace, and daemon-side
// spans are returned to the caller on the final NDJSON line. -pprof
// mounts net/http/pprof under /debug/pprof/ (off by default, matching
// cmd/llmms); -version prints the daemon version and Go runtime and
// exits.
//
// -data-dir persists the daemon's embed cache in a WAL-backed vector
// collection, so embeddings computed before a restart are served without
// recomputation after it (empty = no cache); -wal-sync picks the WAL
// durability policy (batch, always, none).
//
// Every generation goes through the engine's per-model continuous batch
// scheduler: concurrent requests on one model decode together at ~1x–2x a
// single stream's step cost. On SIGINT the daemon stops accepting requests
// and drains the schedulers so in-flight generations finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"llmms/internal/llm"
	"llmms/internal/modeld"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
	"llmms/internal/vectordb"
)

func main() {
	addr := flag.String("addr", ":11434", "listen address (Ollama's default port)")
	questions := flag.Int("questions", 400, "knowledge base size")
	latency := flag.Float64("latency", 0.02, "simulated decode latency scale (0 = no delay)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	dataDir := flag.String("data-dir", "", "persist the embed cache under this directory (empty = no cache)")
	walSync := flag.String("wal-sync", "batch", "WAL durability: batch (group commit), always (fsync per write), none")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("modeld %s %s\n", modeld.Version, telemetry.GoVersion())
		return
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatalf("modeld: %v", err)
	}

	engine := llm.NewEngine(llm.Options{
		Knowledge:    llm.NewKnowledge(truthfulqa.Generate(*questions, 1)),
		LatencyScale: *latency,
	})
	opts := []modeld.ServerOption{
		modeld.WithLogger(logger),
		modeld.WithPprof(*enablePprof),
	}
	var db *vectordb.DB
	if *dataDir != "" {
		policy, err := vectordb.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatalf("modeld: %v", err)
		}
		db, err = vectordb.Open(*dataDir, vectordb.OpenOptions{Sync: policy})
		if err != nil {
			log.Fatalf("modeld: open embed cache: %v", err)
		}
		col, err := db.GetOrCreateCollection("embeds", vectordb.CollectionConfig{})
		if err != nil {
			log.Fatalf("modeld: open embed cache: %v", err)
		}
		logger.Info("embed cache opened", "dir", *dataDir, "entries", col.Count())
		opts = append(opts, modeld.WithEmbedCache(col))
	}
	srv := modeld.NewServer(engine, opts...)
	fmt.Printf("modeld listening on %s\n", *addr)
	for _, p := range engine.Profiles() {
		fmt.Printf("  model %-12s %s %s ctx=%d\n", p.Name, p.Parameters, p.Quantization, p.ContextWindow)
	}

	// Graceful shutdown: stop accepting requests, then drain each
	// model's batch scheduler so in-flight generations finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	hs := &http.Server{Addr: *addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatalf("modeld: %v", err)
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("modeld: shutdown: %v", err)
	}
	if err := engine.Close(); err != nil {
		log.Printf("modeld: engine close: %v", err)
	}
	if db != nil {
		if err := db.Close(); err != nil {
			log.Printf("modeld: embed cache close: %v", err)
		}
	}
}
