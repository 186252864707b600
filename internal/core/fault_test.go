package core

import (
	"context"
	"errors"
	"testing"

	"llmms/internal/llm/llmtest"
)

func failureEvents(cfg *Config) *[]Event {
	var failures []Event
	cfg.OnEvent = func(ev Event) {
		if ev.Type == EventModelFailed {
			failures = append(failures, ev)
		}
	}
	return &failures
}

func TestRetryRecoversTransientFault(t *testing.T) {
	fb := llmtest.NewFaultBackend(threeModels())
	fb.FailCall("good", 1, errBoom)
	cfg := DefaultConfig("good", "okay", "bad")
	failures := failureEvents(&cfg)
	o := mustNewFast(t, fb, cfg)
	res, err := o.Run(context.Background(), StrategyOUA, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	if len(*failures) != 0 {
		t.Fatalf("transient fault escalated to model failure: %+v", *failures)
	}
	if fb.Calls("good") < 2 {
		t.Fatalf("no retry issued: %d calls", fb.Calls("good"))
	}
	good, ok := res.Outcome("good")
	if !ok || good.Failed {
		t.Fatalf("recovered model marked failed: %+v", good)
	}
}

func TestRetryExhaustionPrunesModel(t *testing.T) {
	fb := llmtest.NewFaultBackend(threeModels())
	fb.FailAlways("okay", errBoom)
	cfg := DefaultConfig("good", "okay", "bad")
	failures := failureEvents(&cfg)
	o := mustNewFast(t, fb, cfg)
	res, err := o.Run(context.Background(), StrategyOUA, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == "okay" {
		t.Fatal("dead model won the query")
	}
	if len(*failures) != 1 || (*failures)[0].Model != "okay" {
		t.Fatalf("failure events = %+v", *failures)
	}
	if got := (*failures)[0].Attempts; got != 2 {
		t.Fatalf("attempts = %d, want the full retry budget", got)
	}
	if got := fb.Calls("okay"); got != 2 {
		t.Fatalf("dead model was called %d times, want exactly MaxAttempts", got)
	}
	okay, ok := res.Outcome("okay")
	if !ok || !okay.Failed || !okay.Pruned || okay.Error == "" {
		t.Fatalf("failed outcome = %+v", okay)
	}
}

func TestAllModelsFailed(t *testing.T) {
	strategies := []Strategy{StrategyOUA, StrategyMAB, StrategyHybrid}
	for _, st := range strategies {
		t.Run(string(st), func(t *testing.T) {
			fb := llmtest.NewFaultBackend(threeModels())
			for _, m := range []string{"good", "okay", "bad"} {
				fb.FailAlways(m, errBoom)
			}
			cfg := DefaultConfig("good", "okay", "bad")
			failures := failureEvents(&cfg)
			o := mustNewFast(t, fb, cfg)
			_, err := o.Run(context.Background(), st, testPrompt)
			if !errors.Is(err, ErrAllModelsFailed) {
				t.Fatalf("err = %v, want ErrAllModelsFailed", err)
			}
			if !errors.Is(err, errBoom) {
				t.Fatalf("err = %v, want per-model detail wrapped", err)
			}
			if len(*failures) != 3 {
				t.Fatalf("failure events = %+v, want one per model", *failures)
			}
		})
	}
	t.Run("single", func(t *testing.T) {
		fb := llmtest.NewFaultBackend(threeModels())
		fb.FailAlways("good", errBoom)
		cfg := DefaultConfig("good")
		failures := failureEvents(&cfg)
		o := mustNewFast(t, fb, cfg)
		if _, err := o.Run(context.Background(), StrategySingle, testPrompt); !errors.Is(err, errBoom) {
			t.Fatalf("err = %v", err)
		}
		if len(*failures) != 1 {
			t.Fatalf("failure events = %+v", *failures)
		}
	})
}
