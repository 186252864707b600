package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"llmms/internal/fleet"
	"llmms/internal/llm"
	"llmms/internal/modeld"
	"llmms/internal/server"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
)

// The system under test: the production stack composed from public
// constructors, as internal/server/trace_integration_test.go composes it,
// but on real loopback TCP listeners. cmd/llmms cannot point its fleet at
// remote daemons, which is why the harness composes the stack itself.
//
//	load generator ──HTTP/SSE──▶ server.Server ──▶ fleet.Pool ──▶ modeld.Client ×2
//	                                                   ──HTTP/NDJSON──▶ modeld.Server ×2 ──▶ llm.Engine ×2

// daemons is the number of modeld daemons; each serves all three models,
// so every model has two replicas.
const daemons = 2

// sutConfig selects a workload's stack. Traced interposes the harness's
// span wrappers (trace.go); the end-to-end metrics are measured without.
type sutConfig struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	DataDir  string `json:"data_dir,omitempty"`
}

// sutInfo is what a started SUT tells the load generator.
type sutInfo struct {
	Server  string   `json:"server"`
	Daemons []string `json:"daemons"`
}

// sutStats is the body of the harness-owned GET /bench/stats: what the
// parent needs from inside the SUT process and cannot read from the
// program's own endpoints.
type sutStats struct {
	// CPUSeconds is user+system CPU of the SUT process so far.
	CPUSeconds float64 `json:"cpu_seconds"`
	// HeapAllocBytes is MemStats.HeapAlloc, read after two runtime.GC()
	// when the request says ?gc=1.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// TotalAllocBytes is MemStats.TotalAlloc: bytes allocated so far.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// TokensDecoded sums Engine.Stats(model).TokensGenerated over the
	// daemons' engines; BatchSteps and BatchDecoded sum Engine.BatchStats.
	TokensDecoded int    `json:"tokens_decoded"`
	BatchSteps    uint64 `json:"batch_steps"`
	BatchDecoded  uint64 `json:"batch_decoded"`
}

// sut is a running in-process stack.
type sut struct {
	info    sutInfo
	rec     *recorder // nil unless traced
	engines []*llm.Engine
	closers []func()
}

// startSUT composes and starts the stack inside this process. The child
// process (serveMain) and TestSmoke both use it.
func startSUT(cfg sutConfig) (s *sut, err error) {
	spec, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	s = &sut{}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	if cfg.Traced {
		s.rec = newRecorder()
	}
	kb := llm.NewKnowledge(truthfulqa.Generate(datasetSize, datasetSeed))
	tel := telemetry.New(telemetry.Options{})

	clientOpts := []modeld.Option{modeld.WithTelemetry(tel)}
	if cfg.Traced {
		// The package's tuned transport is private; this is its shape with
		// the header-injecting tripper on top.
		clientOpts = append(clientOpts, modeld.WithHTTPClient(&http.Client{Transport: headerTripper{
			base: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 32, IdleConnTimeout: 90 * time.Second},
		}}))
	}
	replicas := make(map[string][]fleet.Replica)
	for d := 0; d < daemons; d++ {
		id := fmt.Sprintf("d%d", d)
		engine := llm.NewEngine(llm.Options{Knowledge: kb, LatencyScale: spec.LatencyScale})
		s.engines = append(s.engines, engine)
		s.closers = append(s.closers, func() { _ = engine.Close() })
		var h http.Handler = modeld.NewServer(engine)
		if cfg.Traced {
			h = s.rec.wrapDaemon(id, h)
		}
		url, err := s.listen(h)
		if err != nil {
			return nil, err
		}
		s.info.Daemons = append(s.info.Daemons, url)
		var backend llm.Backend = modeld.New(url, clientOpts...)
		if cfg.Traced {
			backend = &tracedBackend{rec: s.rec, name: spanClient, replica: id, inner: backend}
		}
		for _, p := range engine.Profiles() {
			replicas[p.Name] = append(replicas[p.Name], fleet.Replica{ID: id, Backend: backend})
		}
	}
	// Hedging stays off: a timing-triggered duplicate call would make CPU
	// per query irreproducible. The probe is cmd/llmms's.
	pool, err := fleet.New(fleet.Config{
		Replicas:  replicas,
		Telemetry: tel,
		Probe: func(ctx context.Context, model string, r fleet.Replica) error {
			_, err := r.Backend.GenerateChunk(ctx, llm.ChunkRequest{
				Model: model, Prompt: "Question: ping?\nAnswer:", MaxTokens: 1,
			})
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	pool.Start()
	s.closers = append(s.closers, pool.Close)

	// The server's own engine serves only the model inventory and
	// embeddings; generation goes through the fleet.
	inventory := llm.NewEngine(llm.Options{Knowledge: kb})
	s.closers = append(s.closers, func() { _ = inventory.Close() })
	opts := spec.serverOptions(cfg.DataDir)
	opts.Engine = inventory
	opts.Fleet = pool
	opts.Telemetry = tel
	if cfg.Traced {
		opts.Backend = &tracedBackend{rec: s.rec, name: spanFleet, inner: pool}
	}
	srv, err := server.NewServer(opts)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { _ = srv.Close() })

	var app http.Handler = srv
	if cfg.Traced {
		app = s.rec.wrapServer(app)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /bench/stats", s.handleStats)
	mux.HandleFunc("GET /bench/spans", s.handleSpans)
	mux.Handle("/", app)
	if s.info.Server, err = s.listen(mux); err != nil {
		return nil, err
	}
	return s, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (s *sut) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on Close
	}()
	s.closers = append(s.closers, func() {
		_ = hs.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// Close stops the stack in reverse order of construction.
func (s *sut) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

func (s *sut) handleStats(w http.ResponseWriter, r *http.Request) {
	var st sutStats
	if r.URL.Query().Get("gc") == "1" {
		runtime.GC()
		runtime.GC()
	}
	// ReadMemStats stops the world; the between-block CPU samples of the
	// measured phase ask for none of it.
	if r.URL.Query().Get("mem") != "0" {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st.HeapAllocBytes = ms.HeapAlloc
		st.TotalAllocBytes = ms.TotalAlloc
	}
	st.CPUSeconds = selfCPUSeconds()
	for _, e := range s.engines {
		for _, p := range e.Profiles() {
			if ms, err := e.Stats(p.Name); err == nil {
				st.TokensDecoded += ms.TokensGenerated
			}
			if bs, ok := e.BatchStats(p.Name); ok {
				st.BatchSteps += bs.Steps
				st.BatchDecoded += bs.Decoded
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

func (s *sut) handleSpans(w http.ResponseWriter, _ *http.Request) {
	var spans []span
	if s.rec != nil {
		spans = s.rec.snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(spans)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// selfCPUSeconds is this process's user+system CPU so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// serveMain is the child process: `benchmark serve <config JSON>`. It
// starts the stack, prints its addresses as one JSON line, and serves
// until its standard input closes — so it also stops if the parent dies.
func serveMain(arg string) error {
	var cfg sutConfig
	if err := json.Unmarshal([]byte(arg), &cfg); err != nil {
		return fmt.Errorf("serve: bad config: %w", err)
	}
	s, err := startSUT(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	if err := json.NewEncoder(os.Stdout).Encode(s.info); err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, os.Stdin)
	return nil
}

// sutProc is a SUT the load generator talks to: a child process, or (in
// tests) a stack inside this process.
type sutProc struct {
	info sutInfo
	stop func() error
}

// spawnSUT starts the stack as a child process of this binary and waits
// for its addresses.
func spawnSUT(cfg sutConfig) (*sutProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve", string(arg))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start SUT: %w", err)
	}
	stop := func() error {
		_ = stdin.Close()
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			return errors.New("SUT did not stop within 10s; killed")
		}
	}
	var info sutInfo
	if err := json.NewDecoder(stdout).Decode(&info); err != nil {
		_ = stop()
		return nil, fmt.Errorf("read SUT addresses: %w", err)
	}
	return &sutProc{info: info, stop: stop}, nil
}

// inprocSUT starts the stack inside this process (tests only: its CPU
// and heap are then shared with the load generator).
func inprocSUT(cfg sutConfig) (*sutProc, error) {
	s, err := startSUT(cfg)
	if err != nil {
		return nil, err
	}
	return &sutProc{info: s.info, stop: func() error { s.Close(); return nil }}, nil
}
