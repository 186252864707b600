package modeld

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"llmms/internal/llm"
	"llmms/internal/truthfulqa"
)

// TestBatchOccupancyMetrics checks that /metrics carries the
// llmms_batch_* series the daemon wires into the engine — the one view of
// batch occupancy — with a generation's steps counted.
func TestBatchOccupancyMetrics(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	defer engine.Close()
	srv := httptest.NewServer(NewServer(engine))
	defer srv.Close()
	c := New(srv.URL, WithHTTPClient(srv.Client()))

	if _, err := c.GenerateChunk(context.Background(), llm.ChunkRequest{
		Model: llm.ModelLlama3, Prompt: "Are bats blind?",
	}); err != nil {
		t.Fatal(err)
	}

	mr, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, series := range []string{
		"llmms_batch_occupancy{model=\"llama3:8b\"}",
		"llmms_batch_steps_total{model=\"llama3:8b\"}",
		"llmms_batch_step_seconds_count{model=\"llama3:8b\"}",
		"llmms_batch_admission_wait_seconds_count{model=\"llama3:8b\"}",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("/metrics missing %q", series)
		}
	}
	if strings.Contains(body, "llmms_batch_steps_total{model=\"llama3:8b\"} 0\n") {
		t.Fatal("a generation counted no batch steps")
	}
}
