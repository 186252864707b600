package modeld

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"llmms/internal/llm"
	"llmms/internal/truthfulqa"
)

// TestPSBatchOccupancy checks that /api/ps surfaces the batch-scheduler
// snapshot and that /metrics carries the llmms_batch_* series the
// daemon wires into the engine.
func TestPSBatchOccupancy(t *testing.T) {
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

	resp, err := srv.Client().Get(srv.URL + "/api/ps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ps TagsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ps); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ps.Models {
		if m.Name != llm.ModelLlama3 {
			continue
		}
		found = true
		if m.Batch == nil {
			t.Fatal("/api/ps model entry has no batch snapshot")
		}
		if m.Batch.Steps == 0 || m.Batch.Decoded == 0 {
			t.Fatalf("batch snapshot recorded no work: %+v", m.Batch)
		}
		if m.Batch.Active != 0 || m.Batch.Pending != 0 {
			t.Fatalf("idle model reports occupancy: %+v", m.Batch)
		}
	}
	if !found {
		t.Fatal("generated model missing from /api/ps")
	}

	mr, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	body, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"llmms_batch_occupancy{model=\"llama3:8b\"}",
		"llmms_batch_steps_total{model=\"llama3:8b\"}",
		"llmms_batch_step_seconds_count{model=\"llama3:8b\"}",
		"llmms_batch_admission_wait_seconds_count{model=\"llama3:8b\"}",
	} {
		if !strings.Contains(string(body), series) {
			t.Fatalf("/metrics missing %s", series)
		}
	}
}

// TestPSBatchAbsentWithoutScheduler pins the shape of a model that is
// loaded but has generated nothing yet: no batch object in /api/ps.
func TestPSBatchAbsentWithoutScheduler(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	defer engine.Close()
	if err := engine.Load(llm.ModelLlama3); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(engine))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/api/ps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/ps status = %d", resp.StatusCode)
	}
	var ps TagsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ps); err != nil {
		t.Fatal(err)
	}
	if len(ps.Models) != 1 || ps.Models[0].Batch != nil {
		t.Fatalf("/api/ps = %+v, want the loaded model without batch info", ps.Models)
	}
}
