package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"llmms/internal/llm"
	"llmms/internal/llm/llmtest"
)

// enginePrompt is a knowledge-base question the simulated engine answers
// deterministically — the fixture for streamed-vs-chunked comparisons.
const enginePrompt = "Question: What happens if you swallow chewing gum?\nAnswer:"

func engineModels() []string {
	return []string{llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2}
}

// runBoth runs the same query against freshly built orchestrators over
// mkBackend() as it is and behind a chunk-only wrapper, which strips the
// streaming capability, and returns (streamed, chunked) results.
func runBoth(t *testing.T, strat Strategy, mkBackend func() Backend, cfg Config) (Result, Result) {
	t.Helper()
	var out [2]Result
	for i, chunkOnly := range []bool{false, true} {
		b := mkBackend()
		if chunkOnly {
			b = chunkOnlyWrapper{inner: b}
		}
		res, err := mustNew(t, b, cfg).Run(context.Background(), strat, enginePrompt)
		if err != nil {
			t.Fatalf("%s (chunk-only=%v): %v", strat, chunkOnly, err)
		}
		out[i] = res
	}
	return out[0], out[1]
}

// TestStreamingDeterminism checks the tentpole's core invariant: the
// pipelined path must be an execution-strategy change only. For every
// multi-model strategy, winner, answer, token accounting, and per-model
// responses are identical on a streaming and on a chunk-only backend.
func TestStreamingDeterminism(t *testing.T) {
	cfg := DefaultConfig(engineModels()...)
	cfg.MaxTokens = 512
	for _, strat := range []Strategy{StrategyOUA, StrategyMAB, StrategyHybrid} {
		streamed, chunked := runBoth(t, strat, func() Backend {
			return llm.NewEngine(llm.Options{})
		}, cfg)
		if streamed.Answer != chunked.Answer || streamed.Model != chunked.Model {
			t.Fatalf("%s: streamed winner (%s, %q) != chunked winner (%s, %q)",
				strat, streamed.Model, streamed.Answer, chunked.Model, chunked.Answer)
		}
		if streamed.TokensUsed != chunked.TokensUsed {
			t.Fatalf("%s: streamed used %d tokens, chunked %d",
				strat, streamed.TokensUsed, chunked.TokensUsed)
		}
		for _, co := range chunked.Outcomes {
			so, ok := streamed.Outcome(co.Model)
			if !ok || so.Response != co.Response || so.Tokens != co.Tokens {
				t.Fatalf("%s/%s: streamed outcome %+v != chunked %+v", strat, co.Model, so, co)
			}
		}
	}
}

// streamEventTap collects the pipelined path's lifecycle events.
type streamEventTap struct {
	mu        sync.Mutex
	opens     []Event
	closes    []Event
	fallbacks []Event
}

func (s *streamEventTap) install(cfg *Config) {
	cfg.OnEvent = func(ev Event) {
		s.mu.Lock()
		defer s.mu.Unlock()
		switch ev.Type {
		case EventStreamOpen:
			s.opens = append(s.opens, ev)
		case EventStreamClose:
			s.closes = append(s.closes, ev)
		case EventStreamFallback:
			s.fallbacks = append(s.fallbacks, ev)
		}
	}
}

// TestMidStreamBreakFallsBackLosslessly scripts a connection drop after
// a few tokens and checks the reopen ladder carries the query on without
// losing the text drained before the break: the broken model's response —
// and the whole result — match a run that never streamed.
func TestMidStreamBreakFallsBackLosslessly(t *testing.T) {
	cfg := DefaultConfig(engineModels()...)
	cfg.MaxTokens = 512
	tap := &streamEventTap{}
	tap.install(&cfg)
	var broken []*llmtest.FaultBackend
	streamed, chunked := runBoth(t, StrategyOUA, func() Backend {
		fb := llmtest.NewFaultBackend(llm.NewEngine(llm.Options{}))
		fb.EnableStreams()
		fb.BreakStreamAfter(llm.ModelLlama3, 10)
		broken = append(broken, fb)
		return fb
	}, cfg)
	fb := broken[0] // the streamed run's
	if streamed.Answer != chunked.Answer || streamed.Model != chunked.Model {
		t.Fatalf("broken-stream winner (%s, %q) != reference (%s, %q)",
			streamed.Model, streamed.Answer, chunked.Model, chunked.Answer)
	}
	so, _ := streamed.Outcome(llm.ModelLlama3)
	co, _ := chunked.Outcome(llm.ModelLlama3)
	if so.Response != co.Response {
		t.Fatalf("broken model lost drained text:\nstreamed %q\nchunked  %q", so.Response, co.Response)
	}
	found := false
	for _, ev := range tap.fallbacks {
		if ev.Model == llm.ModelLlama3 {
			found = true
			if ev.Reason == "" {
				t.Fatalf("fallback event has no reason: %+v", ev)
			}
		}
	}
	if !found {
		t.Fatalf("no stream_fallback event for the broken model; fallbacks = %+v", tap.fallbacks)
	}
	// The broken model kept generating on a reopened stream after the
	// break — the reopen ladder, not a prune.
	if so.Failed || (so.Pruned && so.Response == "") {
		t.Fatalf("broken stream escalated to model failure: %+v", so)
	}
	if fb.StreamOpens(llm.ModelLlama3) < 2 {
		t.Fatalf("the broken stream was not reopened: %d opens", fb.StreamOpens(llm.ModelLlama3))
	}
}

// TestStreamOpenFailureDegradesQuietly checks a transient OpenStream error
// costs the model one attempt: the next one reopens, the model answers as
// if nothing had happened, and the reopen is announced with its reason.
func TestStreamOpenFailureDegradesQuietly(t *testing.T) {
	cfg := DefaultConfig(engineModels()...)
	cfg.MaxTokens = 256
	tap := &streamEventTap{}
	tap.install(&cfg)
	fb := llmtest.NewFaultBackend(llm.NewEngine(llm.Options{}))
	fb.EnableStreams()
	fb.FailStreamOpen(llm.ModelMistral, errBoom)
	res, err := mustNewFast(t, fb, cfg).Run(context.Background(), StrategyOUA, enginePrompt)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OnEvent = nil
	ref, err := mustNew(t, llm.NewEngine(llm.Options{}), cfg).Run(context.Background(), StrategyOUA, enginePrompt)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := res.Outcome(llm.ModelMistral)
	want, _ := ref.Outcome(llm.ModelMistral)
	if !ok || out.Failed || out.Response == "" || out.Response != want.Response {
		t.Fatalf("open-failure model = %+v, want the undisturbed %+v", out, want)
	}
	if len(tap.fallbacks) == 0 || tap.fallbacks[0].Model != llm.ModelMistral || tap.fallbacks[0].Reason == "" {
		t.Fatalf("no stream_fallback with a reason for the open failure; fallbacks = %+v", tap.fallbacks)
	}
	if opens, closes := fb.StreamOpens(llm.ModelMistral), fb.StreamCloses(llm.ModelMistral); opens == 0 || opens != closes {
		t.Fatalf("mistral: %d streams opened, %d closed; want the reopened stream, closed", opens, closes)
	}
}

// TestPersistentOpenFailureFailsModel: a model whose every open fails is
// retired after the retry budget, exactly as a dead model is, and the
// query goes on without it.
func TestPersistentOpenFailureFailsModel(t *testing.T) {
	cfg := DefaultConfig(engineModels()...)
	cfg.MaxTokens = 256
	failures := failureEvents(&cfg)
	fb := llmtest.NewFaultBackend(llm.NewEngine(llm.Options{}))
	fb.EnableStreams()
	fb.FailAlways(llm.ModelMistral, errBoom)
	res, err := mustNewFast(t, fb, cfg).Run(context.Background(), StrategyOUA, enginePrompt)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := res.Outcome(llm.ModelMistral)
	if !out.Failed || !out.Pruned || !strings.Contains(out.Error, errBoom.Error()) {
		t.Fatalf("mistral outcome = %+v, want failed on its open error", out)
	}
	if len(*failures) != 1 || (*failures)[0].Attempts != fastRetry.attempts {
		t.Fatalf("failure events = %+v, want one after %d attempts", *failures, fastRetry.attempts)
	}
	if fb.StreamOpens(llm.ModelMistral) != 0 {
		t.Fatalf("a failed open was counted as a success")
	}
}

// waitEngineStreams polls the engine's live-session gauge to zero — the
// producer goroutine exits asynchronously after cancel.
func waitEngineStreams(t *testing.T, e *llm.Engine) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if e.OpenStreams() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("engine still holds %d open streams", e.OpenStreams())
}

// TestStreamsClosedOnQueryEnd runs every strategy and checks session
// hygiene: every opened stream is closed (FaultBackend accounting) and
// the engine holds no live generation sessions afterward — the
// no-goroutine-leak check for prune, early exit, natural completion, and
// the query-end sweep alike.
func TestStreamsClosedOnQueryEnd(t *testing.T) {
	for _, strat := range []Strategy{StrategyOUA, StrategyMAB, StrategyHybrid} {
		engine := llm.NewEngine(llm.Options{})
		fb := llmtest.NewFaultBackend(engine)
		fb.EnableStreams()
		cfg := DefaultConfig(engineModels()...)
		cfg.MaxTokens = 512
		// Aggressive margins so OUA actually prunes and early-exits.
		cfg.PruneMargin = 0.01
		cfg.LeadMargin = 0.01
		o := mustNew(t, fb, cfg)
		if _, err := o.Run(context.Background(), strat, enginePrompt); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		for _, m := range engineModels() {
			if opens, closes := fb.StreamOpens(m), fb.StreamCloses(m); opens != closes {
				t.Fatalf("%s/%s: %d streams opened, %d closed", strat, m, opens, closes)
			}
		}
		waitEngineStreams(t, engine)
	}
}

// TestStreamsClosedOnCancel checks a canceled query still sweeps its
// sessions closed on the way out.
func TestStreamsClosedOnCancel(t *testing.T) {
	engine := llm.NewEngine(llm.Options{LatencyScale: 0.05})
	fb := llmtest.NewFaultBackend(engine)
	fb.EnableStreams()
	cfg := DefaultConfig(engineModels()...)
	cfg.MaxTokens = 512
	o := mustNew(t, fb, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, err := o.Run(ctx, StrategyOUA, enginePrompt); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, m := range engineModels() {
		if opens, closes := fb.StreamOpens(m), fb.StreamCloses(m); opens != closes {
			t.Fatalf("%s: %d streams opened, %d closed after cancel", m, opens, closes)
		}
	}
	waitEngineStreams(t, engine)
}

// TestPipelinedRoundsUnderRace drives the full pipelined machinery —
// concurrent fan-out drains, background producer goroutines filling
// buffers between rounds, a mid-stream break, and concurrent queries on
// one orchestrator — with simulated decode latency so generation
// genuinely overlaps scoring. Its assertions are light; its value is
// running under check.sh's -race flag.
func TestPipelinedRoundsUnderRace(t *testing.T) {
	engine := llm.NewEngine(llm.Options{LatencyScale: 0.002})
	fb := llmtest.NewFaultBackend(engine)
	fb.EnableStreams()
	fb.BreakStreamAfter(llm.ModelQwen2, 12)
	cfg := DefaultConfig(engineModels()...)
	cfg.MaxTokens = 256
	o := mustNew(t, fb, cfg)
	var wg sync.WaitGroup
	for _, strat := range []Strategy{StrategyOUA, StrategyMAB, StrategyHybrid} {
		wg.Add(1)
		go func(s Strategy) {
			defer wg.Done()
			if _, err := o.Run(context.Background(), s, enginePrompt); err != nil {
				t.Errorf("%s: %v", s, err)
			}
		}(strat)
	}
	wg.Wait()
	waitEngineStreams(t, engine)
}

// TestPrefetchObserved checks the pipelining is real: with decode
// latency flowing between rounds, at least one later-round chunk event
// reports tokens that were already buffered when its drain started.
func TestPrefetchObserved(t *testing.T) {
	engine := llm.NewEngine(llm.Options{})
	cfg := DefaultConfig(engineModels()...)
	// Small per-round slices so answers span several rounds; with no
	// decode latency the producer runs well ahead of scoring, so later
	// rounds find their tokens already buffered.
	cfg.MaxTokens = 96
	prefetched := 0
	cfg.OnEvent = func(ev Event) {
		if ev.Type == EventChunk {
			prefetched += ev.Prefetched
		}
	}
	o := mustNew(t, engine, cfg)
	// The observation is inherently a race the producer almost always
	// wins; a few queries make the "almost" irrelevant.
	for i := 0; i < 10 && prefetched == 0; i++ {
		if _, err := o.Run(context.Background(), StrategyOUA, enginePrompt); err != nil {
			t.Fatal(err)
		}
	}
	if prefetched == 0 {
		t.Fatal("no chunk event reported prefetched tokens; pipelining is not overlapping")
	}
	waitEngineStreams(t, engine)
}

// TestRetryBackoffAbortsOnCancel pins the fault-tolerance contract of the
// reopen ladder: a context canceled during the between-attempt backoff
// sleep aborts the pull immediately with the context's error, rather than
// sleeping out the schedule.
func TestRetryBackoffAbortsOnCancel(t *testing.T) {
	fb := llmtest.NewFaultBackend(threeModels())
	fb.FailAlways("good", errBoom)
	cfg := DefaultConfig("good")
	o := mustNew(t, fb, cfg)
	o.retry = retryPolicy{attempts: 3, backoff: time.Hour, maxBackoff: time.Hour}
	c := &candidate{model: "good"}
	o.attachSessions([]*candidate{c}, testPrompt)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	r := c.sess.next(ctx, nil, 16, 16)
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", r.err)
	}
	if r.attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (canceled during the first backoff)", r.attempts)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("backoff ignored cancellation: returned after %v", elapsed)
	}
}

// chunkOnlyWrapper decorates the chunk path and nothing else: it does not
// stream, so llm.AsStreaming finds nothing — the shape of a backend that
// can only serve per-round calls.
type chunkOnlyWrapper struct{ inner Backend }

func (w chunkOnlyWrapper) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	return w.inner.GenerateChunk(ctx, req)
}

// unbufferedEngine serves the engine's streams without their Buffered
// method, so every drain looks as if it may have to wait.
type unbufferedEngine struct{ *llm.Engine }

func (e unbufferedEngine) OpenStream(ctx context.Context, req llm.ChunkRequest) (llm.ChunkStream, error) {
	st, err := e.Engine.OpenStream(ctx, req)
	if err != nil {
		return nil, err
	}
	return struct{ llm.ChunkStream }{st}, nil
}

// TestChunkTimeoutOnlyArmsWaitingDrains: a drain the buffer already covers
// takes no deadline, which must change nothing — on buffered and on
// unbuffered streams, every strategy's result is the same with the
// per-chunk timeout on and off.
func TestChunkTimeoutOnlyArmsWaitingDrains(t *testing.T) {
	backends := map[string]func() Backend{
		"buffered":   func() Backend { return llm.NewEngine(llm.Options{}) },
		"unbuffered": func() Backend { return unbufferedEngine{llm.NewEngine(llm.Options{})} },
	}
	for name, mk := range backends {
		for _, strat := range []Strategy{StrategyOUA, StrategyMAB, StrategyHybrid} {
			var res [2]Result
			for i, timeout := range []time.Duration{0, 30 * time.Second} {
				cfg := DefaultConfig(engineModels()...)
				cfg.MaxTokens = 512
				o := mustNew(t, mk(), cfg)
				o.retry.chunkTimeout = timeout
				r, err := o.Run(context.Background(), strat, enginePrompt)
				if err != nil {
					t.Fatalf("%s/%s timeout %v: %v", name, strat, timeout, err)
				}
				r.Elapsed = 0
				res[i] = r
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Fatalf("%s/%s: result without a chunk timeout %+v differs from with one %+v", name, strat, res[0], res[1])
			}
		}
	}
}

// stallBackend's streams never deliver a token.
type stallBackend struct{}

func (stallBackend) GenerateChunk(context.Context, llm.ChunkRequest) (llm.Chunk, error) {
	return llm.Chunk{Text: "late", EvalCount: 1, Done: true, DoneReason: llm.DoneStop}, nil
}

func (stallBackend) OpenStream(context.Context, llm.ChunkRequest) (llm.ChunkStream, error) {
	return stallStream{}, nil
}

type stallStream struct{}

func (stallStream) Next(ctx context.Context, _ int) (llm.Chunk, error) {
	<-ctx.Done()
	return llm.Chunk{}, ctx.Err()
}
func (stallStream) Close() error  { return nil }
func (stallStream) Buffered() int { return 0 }

// TestStalledStreamStillTimesOut: a drain that has to wait is still bound
// by the per-chunk timeout, which closes the stream and spends the attempt.
func TestStalledStreamStillTimesOut(t *testing.T) {
	cfg := DefaultConfig("m")
	o := mustNew(t, stallBackend{}, cfg)
	o.retry = retryPolicy{attempts: 1, chunkTimeout: 20 * time.Millisecond}
	c := &candidate{model: "m"}
	o.attachSessions([]*candidate{c}, testPrompt)
	done := make(chan fanResult, 1)
	go func() { done <- c.sess.next(context.Background(), nil, 8, 8) }()
	select {
	case r := <-done:
		if !errors.Is(r.err, context.DeadlineExceeded) || r.broke != 1 || c.sess.stream != nil {
			t.Fatalf("stalled drain = %+v, want a timed-out attempt that closed its stream", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a stalled drain never timed out")
	}
}

// TestOneStreamPerCandidate holds the session-budget rule (genSession.drain)
// over the decision grid's fault-free cases, on the streaming engine and on
// the chunk-only lift: on a healthy backend every candidate that is pulled
// opens exactly one stream and never falls back, and every drain returns
// min(take, tokens left in the engine's plan). A strategy never asks for
// more than the candidate's allowance, so a shorter chunk can only be a
// stream opened for less than the candidate could still be awarded.
func TestOneStreamPerCandidate(t *testing.T) {
	engine, prompts := gridEngine(t)
	planned := map[string]int{} // model+prompt → the tokens of the whole answer
	planLen := func(model, prompt string) int {
		key := model + "\x00" + prompt
		if n, ok := planned[key]; ok {
			return n
		}
		c, err := engine.GenerateChunk(context.Background(), llm.ChunkRequest{Model: model, Prompt: prompt})
		if err != nil {
			t.Fatal(err)
		}
		planned[key] = len(c.Context)
		return len(c.Context)
	}
	forEachGridCase(prompts, func(name string, strat Strategy, cfg Config, prompt string) {
		for _, chunkOnly := range []bool{false, true} {
			var inner Backend = chunkOnlyWrapper{inner: engine}
			fb := llmtest.NewFaultBackend(engine)
			if !chunkOnly {
				fb.EnableStreams()
				inner = fb
			}
			ledger := &drainLedger{sessions: llm.Sessions(inner)}
			opens := map[string]int{}
			cfg.OnEvent = func(ev Event) {
				switch ev.Type {
				case EventStreamOpen:
					opens[ev.Model]++
				case EventStreamFallback:
					t.Errorf("%s (chunk-only=%v): %s fell back: %s", name, chunkOnly, ev.Model, ev.Reason)
				}
			}
			res, err := mustNew(t, ledger, cfg).Run(context.Background(), strat, prompt)
			if err != nil {
				t.Fatalf("%s (chunk-only=%v): %v", name, chunkOnly, err)
			}
			for _, m := range cfg.Models {
				o, _ := res.Outcome(m)
				if want := min(o.Pulls, 1); opens[m] != want {
					t.Errorf("%s (chunk-only=%v): %s opened %d streams over %d pulls, want %d",
						name, chunkOnly, m, opens[m], o.Pulls, want)
				}
				if opened, closed := fb.StreamOpens(m), fb.StreamCloses(m); opened != closed {
					t.Errorf("%s: %s opened %d streams, closed %d", name, m, opened, closed)
				}
			}
			total := 0
			for _, d := range ledger.drains {
				total += d.got
				if want := min(d.take, planLen(d.model, prompt)-d.before); d.got != want {
					t.Errorf("%s (chunk-only=%v): %s drained %d of take %d after %d tokens, want %d",
						name, chunkOnly, d.model, d.got, d.take, d.before, want)
				}
			}
			if total != res.TokensUsed || total > cfg.MaxTokens {
				t.Errorf("%s (chunk-only=%v): drained %d tokens, the result spent %d of %d",
					name, chunkOnly, total, res.TokensUsed, cfg.MaxTokens)
			}
		}
	})
}

// drainLedger hands out the sessions of the backend it wraps and records
// every drain: how many tokens it asked for, how many the candidate held
// before it, and how many it got.
type drainLedger struct {
	sessions llm.StreamingBackend
	mu       sync.Mutex
	drains   []drainRecord
}

type drainRecord struct {
	model             string
	take, before, got int
}

func (l *drainLedger) GenerateChunk(context.Context, llm.ChunkRequest) (llm.Chunk, error) {
	return llm.Chunk{}, errors.New("drainLedger: the orchestrator generates through sessions")
}

func (l *drainLedger) OpenStream(ctx context.Context, req llm.ChunkRequest) (llm.ChunkStream, error) {
	st, err := l.sessions.OpenStream(ctx, req)
	if err != nil {
		return nil, err
	}
	return &ledgerStream{ChunkStream: st, l: l, model: req.Model, held: len(req.Cont)}, nil
}

// ledgerStream is one of the ledger's streams; held is the candidate's
// continuation length after the last drain.
type ledgerStream struct {
	llm.ChunkStream
	l     *drainLedger
	model string
	held  int
}

func (s *ledgerStream) Buffered() int {
	if bs, ok := s.ChunkStream.(llm.BufferedStream); ok {
		return bs.Buffered()
	}
	return 0
}

func (s *ledgerStream) Next(ctx context.Context, maxTokens int) (llm.Chunk, error) {
	c, err := s.ChunkStream.Next(ctx, maxTokens)
	if err == nil {
		s.l.mu.Lock()
		s.l.drains = append(s.l.drains, drainRecord{model: s.model, take: maxTokens, before: s.held, got: c.EvalCount})
		s.l.mu.Unlock()
		s.held = len(c.Context)
	}
	return c, err
}
