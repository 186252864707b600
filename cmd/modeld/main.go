// Command modeld runs the standalone model daemon: an Ollama-compatible
// HTTP server (NDJSON streaming /api/generate, /api/embed, /api/tags,
// /api/show, /api/version, /api/gpu, plus Prometheus-style metrics on
// /metrics) in front of the simulated inference engine. It stands in for
// "Ollama daemon 0.4.5" in the paper's computation layer, so the
// orchestrator — or any Ollama client — can drive the simulated models
// over HTTP.
//
// Usage:
//
//	modeld [-addr :11434] [-questions 400] [-latency 0.02]
//	       [-log-level info] [-log-format text] [-pprof] [-version]
//
// The daemon participates in distributed tracing: requests carrying a
// W3C traceparent header join the caller's trace, and daemon-side
// spans are returned to the caller on the final NDJSON line. -pprof
// mounts net/http/pprof under /debug/pprof/ (off by default, matching
// cmd/llmms); -version prints the daemon version and Go runtime and
// exits. The daemon keeps no state on disk. A stray argument, an
// unknown flag or a bad value (a -questions below 1 among them) is a
// one-line error and exit status 2.
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

	"llmms/internal/cli"
	"llmms/internal/llm"
	"llmms/internal/modeld"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
)

func main() {
	addr := flag.String("addr", ":11434", "listen address (Ollama's default port)")
	questions := flag.Int("questions", 400, "knowledge base size")
	latency := flag.Float64("latency", 0.02, "simulated decode latency scale (0 = no delay)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	showVersion := flag.Bool("version", false, "print version and exit")
	cli.Parse("modeld")
	if *questions < 1 {
		cli.Fatal("-questions must be at least 1, got %d", *questions)
	}

	if *showVersion {
		fmt.Printf("modeld %s %s\n", modeld.Version, telemetry.GoVersion())
		return
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		cli.Fatal("%v", err)
	}

	engine := llm.NewEngine(llm.Options{
		Knowledge:    llm.NewKnowledge(truthfulqa.Generate(*questions, 1)),
		LatencyScale: *latency,
	})
	srv := modeld.NewServer(engine, modeld.WithLogger(logger), modeld.WithPprof(*enablePprof))
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
}
