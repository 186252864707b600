package core

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"llmms/internal/llm"
)

// TestEventElapsedJSON pins the wire shape of Event.Elapsed: integer
// nanoseconds under the key elapsed_ns, omitted entirely when zero so
// pre-existing SSE consumers see unchanged frames for events that carry
// no duration.
func TestEventElapsedJSON(t *testing.T) {
	with, err := json.Marshal(Event{Type: EventChunk, Elapsed: 1500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(with, &m); err != nil {
		t.Fatal(err)
	}
	if got, ok := m["elapsed_ns"].(float64); !ok || got != 1.5e9 {
		t.Fatalf("elapsed_ns = %v (present=%v), want 1.5e9", m["elapsed_ns"], ok)
	}

	without, err := json.Marshal(Event{Type: EventScore})
	if err != nil {
		t.Fatal(err)
	}
	var m2 map[string]any
	if err := json.Unmarshal(without, &m2); err != nil {
		t.Fatal(err)
	}
	if _, ok := m2["elapsed_ns"]; ok {
		t.Fatalf("zero Elapsed not omitted: %s", without)
	}
}

// TestEventJSONKeysStable pins the full key set of a maximal event —
// SSE consumers and the telemetry collector both key off these names,
// so a rename is a breaking protocol change that must fail a test.
func TestEventJSONKeysStable(t *testing.T) {
	ev := Event{
		Type: EventChunk, Strategy: StrategyOUA, Time: time.Now(),
		Round: 2, Model: "llama3", Text: "hi", Tokens: 3,
		Score: 0.5, QuerySim: 0.6, InterSim: 0.4,
		Reason: "r", Attempts: 2, Elapsed: time.Second,
	}
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"type", "strategy", "time", "round", "model", "text", "tokens",
		"score", "query_sim", "inter_sim", "reason", "attempts", "elapsed_ns",
	}
	if len(m) != len(want) {
		t.Errorf("event serialized %d keys, want %d: %s", len(m), len(want), data)
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("missing key %q in %s", k, data)
		}
	}
}

// waitLogBackend notes the start of every generation call in a log shared
// with the orchestrator's event and wait hooks.
type waitLogBackend struct {
	Backend
	note func(byte)
}

func (b waitLogBackend) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	b.note('c')
	return b.Backend.GenerateChunk(ctx, req)
}

// TestBeforeWaitAnnouncesEveryGenerationWait pins the contract an event
// buffer relies on (Config.BeforeWait): every generation call of every
// strategy starts with the wait announced and nothing emitted since, and
// a wait is announced only when a call follows.
func TestBeforeWaitAnnouncesEveryGenerationWait(t *testing.T) {
	for _, strategy := range []Strategy{StrategyOUA, StrategyMAB, StrategyHybrid, StrategySingle} {
		var mu sync.Mutex
		var log []byte
		note := func(b byte) {
			mu.Lock()
			log = append(log, b)
			mu.Unlock()
		}
		cfg := DefaultConfig("good", "okay", "bad")
		cfg.MaxTokens = 96
		cfg.OnEvent = func(Event) { note('e') }
		cfg.BeforeWait = func() { note('w') }
		o := mustNew(t, waitLogBackend{threeModels(), note}, cfg)
		if _, err := o.Run(context.Background(), strategy, testPrompt); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		waits := 0
		for i, b := range log {
			switch b {
			case 'c':
				// Calls of one fan-out share a wait; skip back over them.
				j := i
				for j > 0 && log[j-1] == 'c' {
					j--
				}
				if j == 0 || log[j-1] != 'w' {
					t.Fatalf("%s: generation call at %d without its wait announced just before: %s", strategy, i, log)
				}
			case 'w':
				waits++
				if i+1 == len(log) || log[i+1] != 'c' {
					t.Fatalf("%s: wait announced at %d with no generation call behind it: %s", strategy, i, log)
				}
			}
		}
		if waits == 0 {
			t.Fatalf("%s: no wait announced: %s", strategy, log)
		}
	}
}
