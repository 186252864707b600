package modeld_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"llmms/internal/bench"
	"llmms/internal/core"
	"llmms/internal/fleet"
	"llmms/internal/llm"
	"llmms/internal/modeld"
	"llmms/internal/truthfulqa"
)

// These tests exercise the full distributed stack of the paper's
// computation layer: orchestrator → HTTP client → Ollama-compatible
// daemon → inference engine. The orchestration algorithms must behave
// identically whether the backend is in-process or over the wire.

func wireStack(t *testing.T, ds truthfulqa.Dataset) (*llm.Engine, *modeld.Client) {
	t.Helper()
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(ds)})
	srv := httptest.NewServer(modeld.NewServer(engine))
	t.Cleanup(srv.Close)
	return engine, modeld.New(srv.URL, modeld.WithHTTPClient(srv.Client()))
}

func TestOrchestrationOverHTTP(t *testing.T) {
	ds := truthfulqa.Seed()
	_, client := wireStack(t, ds)
	cfg := core.DefaultConfig(llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2)
	cfg.MaxTokens = 256
	orch, err := core.New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []core.Strategy{core.StrategyOUA, core.StrategyMAB, core.StrategyHybrid} {
		res, err := orch.Run(context.Background(), strategy, "Are bats blind?")
		if err != nil {
			t.Fatalf("%s over HTTP: %v", strategy, err)
		}
		if res.Answer == "" || res.TokensUsed == 0 || res.TokensUsed > 256 {
			t.Fatalf("%s: result = %+v", strategy, res)
		}
		lower := strings.ToLower(res.Answer)
		if !strings.Contains(lower, "blind") && !strings.Contains(lower, "see") && !strings.Contains(lower, "echolocation") {
			t.Fatalf("%s: off-topic answer %q", strategy, res.Answer)
		}
	}
}

// TestHTTPBackendMatchesInProcess verifies the wire protocol is lossless:
// the same orchestrated query against the same engine must select the
// same model, produce the same answer, and account the same tokens
// whether driven in-process or through the daemon.
func TestHTTPBackendMatchesInProcess(t *testing.T) {
	ds := truthfulqa.Seed()
	engine, client := wireStack(t, ds)

	cfg := core.DefaultConfig(llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2)
	cfg.MaxTokens = 200
	direct, err := core.New(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	overHTTP, err := core.New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"What happens if you swallow chewing gum?",
		"Do goldfish really have a three-second memory?",
		"Does cracking your knuckles cause arthritis?",
	} {
		for _, strategy := range []core.Strategy{core.StrategyOUA, core.StrategyMAB} {
			a, err := direct.Run(context.Background(), strategy, q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := overHTTP.Run(context.Background(), strategy, q)
			if err != nil {
				t.Fatal(err)
			}
			if a.Model != b.Model || a.Answer != b.Answer || a.TokensUsed != b.TokensUsed {
				t.Fatalf("%s %q diverged over HTTP:\n direct: %s %d %q\n http:   %s %d %q",
					strategy, q, a.Model, a.TokensUsed, a.Answer, b.Model, b.TokensUsed, b.Answer)
			}
		}
	}
}

// TestEvaluationHarnessOverHTTP runs a slice of the paper's evaluation
// through the daemon, proving the harness is backend-agnostic.
func TestEvaluationHarnessOverHTTP(t *testing.T) {
	ds := truthfulqa.Generate(12, 1)
	_, client := wireStack(t, ds)
	rep, err := bench.Run(context.Background(), client, bench.Config{
		Dataset:   ds,
		MaxTokens: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 5*12 {
		t.Fatalf("records = %d", len(rep.Records))
	}
	for _, res := range rep.Results {
		if res.AvgReward == 0 && res.AvgF1 == 0 {
			t.Fatalf("system %s produced nothing over HTTP: %+v", res.System, res)
		}
	}
}

// TestFederatedOrchestration spans two daemons: each model is served by
// its own HTTP endpoint, and the orchestrator coordinates them through a
// fleet.Pool with one replica per model — the §9.5 federated-integration
// proposal, with a generation session per model held open across daemon
// boundaries.
func TestFederatedOrchestration(t *testing.T) {
	ds := truthfulqa.Seed()
	// Two independent engines, each hosting the full profile set but
	// reachable on different endpoints.
	engineA, siteA := wireStack(t, ds)
	engineB, siteB := wireStack(t, ds)

	pool, err := fleet.New(fleet.Config{Replicas: map[string][]fleet.Replica{
		llm.ModelLlama3:  {{ID: "site-a", Backend: siteA}},
		llm.ModelMistral: {{ID: "site-b", Backend: siteB}},
		llm.ModelQwen2:   {{ID: "site-b", Backend: siteB}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cfg := core.DefaultConfig(llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2)
	cfg.MaxTokens = 200
	streamed := map[string]bool{}
	cfg.OnEvent = func(ev core.Event) {
		if ev.Type == core.EventStreamOpen {
			streamed[ev.Model] = true
		}
	}
	orch, err := core.New(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := orch.Run(context.Background(), core.StrategyMAB, "Does sugar make children hyperactive?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer == "" || res.TokensUsed == 0 {
		t.Fatalf("federated result = %+v", res)
	}
	// All three models contributed (UCB1 pulls every arm at least once),
	// each over a stream session on its own daemon.
	for _, out := range res.Outcomes {
		if out.Pulls == 0 {
			t.Fatalf("model %s never pulled across daemons: %+v", out.Model, res.Outcomes)
		}
		if !streamed[out.Model] {
			t.Fatalf("model %s never opened a stream: federation stripped the sessions", out.Model)
		}
	}
	// Each daemon served only the models routed to it.
	for model, wrongSite := range map[string]*llm.Engine{
		llm.ModelLlama3: engineB, llm.ModelMistral: engineA, llm.ModelQwen2: engineA,
	} {
		if st, err := wrongSite.Stats(model); err != nil || st.Requests != 0 {
			t.Fatalf("%s crossed daemon boundaries: %+v, %v", model, st, err)
		}
	}
}

func TestClientErrorPaths(t *testing.T) {
	ds := truthfulqa.Seed().Head(3)
	_, client := wireStack(t, ds)
	ctx := context.Background()

	if _, err := client.GenerateChunk(ctx, llm.ChunkRequest{Model: "phantom:70b", Prompt: "q", MaxTokens: 8}); err == nil {
		t.Fatal("expected error for unknown model")
	}
	// A client pointed at a dead endpoint surfaces transport errors.
	dead := modeld.New("http://127.0.0.1:1")
	if _, err := dead.GenerateChunk(ctx, llm.ChunkRequest{Model: "m", Prompt: "q", MaxTokens: 8}); err == nil {
		t.Fatal("expected transport error")
	}
}
