package llmms_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkHarnessBuilds compiles ./benchmark against this tree.
// The harness is a module of its own (it imports llmms/internal/...
// through a replace), so the root module's `go build ./...` never sees
// it; without this test an internal signature change the harness depends
// on breaks the benchmark silently. The build runs as benchmark/run.sh
// runs it: offline, with the module graph read-only.
func TestBenchmarkHarnessBuilds(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not found: ", err)
	}
	cmd := exec.Command(goTool, "build", "-o", filepath.Join(t.TempDir(), "llmms-bench"), ".")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=readonly", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("benchmark/ no longer builds against internal/: %v\n%s", err, out)
	}
}
