package gpu

import (
	"strings"
	"sync"
	"testing"
)

func TestAllocateOnGPU(t *testing.T) {
	c := NewCluster(TeslaV100)
	p, err := c.Allocate("llama3:8b", 6*GiB)
	if err != nil {
		t.Fatal(err)
	}
	if p.OnCPU || p.Device != 0 || p.Bytes != 6*GiB {
		t.Fatalf("unexpected placement: %+v", p)
	}
	if !c.Resident("llama3:8b") {
		t.Fatal("model not resident after allocate")
	}
}

func TestAllocateFallsBackToCPU(t *testing.T) {
	c := NewCluster(DeviceSpec{Name: "tiny", VRAM: 1 * GiB})
	p, err := c.Allocate("big-model", 8*GiB)
	if err != nil {
		t.Fatal(err)
	}
	if !p.OnCPU {
		t.Fatalf("expected CPU fallback, got %+v", p)
	}
	snap := c.Stats()
	if len(snap.CPUResident) != 1 || snap.CPUResident[0].Owner != "big-model" {
		t.Fatalf("CPU resident list wrong: %+v", snap.CPUResident)
	}
}

func TestCPUOnlyCluster(t *testing.T) {
	c := NewCluster()
	p, err := c.Allocate("m", 4*GiB)
	if err != nil || !p.OnCPU {
		t.Fatalf("cpu-only cluster: %+v %v", p, err)
	}
}

func TestDoubleAllocateFails(t *testing.T) {
	c := NewCluster(TeslaV100)
	if _, err := c.Allocate("m", GiB); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate("m", GiB); err == nil {
		t.Fatal("expected error on double allocate")
	}
	// Also for CPU residents.
	c2 := NewCluster()
	if _, err := c2.Allocate("m", GiB); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Allocate("m", GiB); err == nil {
		t.Fatal("expected error on double CPU allocate")
	}
}

func TestReleaseFreesMemory(t *testing.T) {
	c := NewCluster(DeviceSpec{Name: "g", VRAM: 10 * GiB})
	if _, err := c.Allocate("a", 8*GiB); err != nil {
		t.Fatal(err)
	}
	// No room for b on GPU.
	pb, _ := c.Allocate("b", 8*GiB)
	if !pb.OnCPU {
		t.Fatalf("expected CPU fallback for b: %+v", pb)
	}
	if err := c.Release("a"); err != nil {
		t.Fatal(err)
	}
	if c.Resident("a") {
		t.Fatal("a still resident after release")
	}
	pc, err := c.Allocate("c", 8*GiB)
	if err != nil || pc.OnCPU {
		t.Fatalf("expected GPU placement after release: %+v %v", pc, err)
	}
	if err := c.Release("b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Release("nope"); err == nil {
		t.Fatal("expected error releasing unknown owner")
	}
}

func TestLeastLoadedPlacement(t *testing.T) {
	c := NewCluster(
		DeviceSpec{Name: "g0", VRAM: 10 * GiB},
		DeviceSpec{Name: "g1", VRAM: 10 * GiB},
	)
	p0, _ := c.Allocate("a", 4*GiB)
	p1, _ := c.Allocate("b", 4*GiB)
	if p0.Device == p1.Device {
		t.Fatalf("both allocations on device %d; want spread", p0.Device)
	}
}

func TestUtilizationAndTemperature(t *testing.T) {
	c := NewCluster(TeslaV100)
	if _, err := c.Allocate("m", GiB); err != nil {
		t.Fatal(err)
	}
	base := c.Stats().Devices[0]
	if base.Utilization != 0 {
		t.Fatalf("idle utilization = %v", base.Utilization)
	}
	end := c.BeginJob("m")
	busy := c.Stats().Devices[0]
	if busy.Utilization <= 0 {
		t.Fatalf("busy utilization = %v", busy.Utilization)
	}
	if busy.Temperature <= base.Temperature {
		t.Fatalf("temperature did not rise: %v -> %v", base.Temperature, busy.Temperature)
	}
	end()
	end() // idempotent
	after := c.Stats().Devices[0]
	if after.Utilization != 0 {
		t.Fatalf("utilization after job end = %v", after.Utilization)
	}
	if after.Temperature != 35 {
		t.Fatalf("device did not cool to ambient: %v", after.Temperature)
	}
}

// TestIdleDeviceReadsAmbient: however many busy periods a device has
// been through, once idle it reads ambient — temperature follows the
// current load, not the history of it.
func TestIdleDeviceReadsAmbient(t *testing.T) {
	c := NewCluster(TeslaV100)
	if _, err := c.Allocate("m", GiB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		end := c.BeginJob("m")
		if d := c.Stats().Devices[0]; d.Temperature <= 35 || d.Temperature > 90 {
			t.Fatalf("busy period %d reads %v °C, want above ambient and at most 90", i, d.Temperature)
		}
		end()
	}
	if d := c.Stats().Devices[0]; d.Utilization != 0 || d.Temperature != 35 {
		t.Fatalf("idle device after 20 busy periods reads %v%% at %v °C, want 0%% at 35 °C", d.Utilization, d.Temperature)
	}
	// Fully busy is the ceiling.
	for i := 0; i < 3; i++ {
		defer c.BeginJob("m")()
	}
	if d := c.Stats().Devices[0]; d.Utilization != 100 || d.Temperature != 90 {
		t.Fatalf("saturated device reads %v%% at %v °C, want 100%% at 90 °C", d.Utilization, d.Temperature)
	}
}

func TestBeginJobCPUOwnerNoop(t *testing.T) {
	c := NewCluster()
	if _, err := c.Allocate("m", GiB); err != nil {
		t.Fatal(err)
	}
	end := c.BeginJob("m") // must not panic
	end()
}

func TestSnapshotString(t *testing.T) {
	c := NewCluster(TeslaV100)
	_, _ = c.Allocate("llama3:8b", 6*GiB)
	c2 := NewCluster()
	_, _ = c2.Allocate("cpu-model", GiB)

	s := c.Stats().String()
	if !strings.Contains(s, "Tesla V100") || !strings.Contains(s, "llama3:8b") {
		t.Fatalf("snapshot string missing fields:\n%s", s)
	}
	s2 := c2.Stats().String()
	if !strings.Contains(s2, "CPU fallback") {
		t.Fatalf("cpu snapshot missing fallback section:\n%s", s2)
	}
}

func TestConcurrentAllocateRelease(t *testing.T) {
	c := NewCluster(TeslaV100, TeslaV100)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			owner := string(rune('a' + i%26))
			// Owners may collide; both outcomes (success then release,
			// or duplicate error) are fine — the invariant under test is
			// that accounting never corrupts.
			if _, err := c.Allocate(owner, GiB); err == nil {
				end := c.BeginJob(owner)
				end()
				_ = c.Release(owner)
			}
		}(i)
	}
	wg.Wait()
	snap := c.Stats()
	for _, d := range snap.Devices {
		if d.MemoryUsed != 0 {
			t.Fatalf("leaked memory: %+v", d)
		}
	}
}

func TestRecordStepAccounting(t *testing.T) {
	c := NewCluster(TeslaV100)
	if _, err := c.Allocate("m1", GiB); err != nil {
		t.Fatal(err)
	}
	c.RecordSteps("m1", 8, 1, 8)
	c.RecordSteps("m1", 5, 3, 15) // a run of steps reported at once
	d := c.Stats().Devices[0]
	if d.BatchSeqs != 5 {
		t.Fatalf("BatchSeqs = %d, want 5 (latest occupancy)", d.BatchSeqs)
	}
	if d.BatchSteps != 4 || d.BatchTokens != 23 {
		t.Fatalf("steps/tokens = %d/%d, want 4/23", d.BatchSteps, d.BatchTokens)
	}
	// Occupancy beyond the scheduler's single job drives utilization.
	end := c.BeginJob("m1")
	d = c.Stats().Devices[0]
	if d.Utilization != 100 {
		t.Fatalf("util with occupancy 5 = %v, want capped 100", d.Utilization)
	}
	end()
	// Going idle clears occupancy but keeps cumulative counters.
	c.RecordSteps("m1", 0, 0, 0)
	d = c.Stats().Devices[0]
	if d.BatchSeqs != 0 || d.BatchSteps != 4 || d.BatchTokens != 23 {
		t.Fatalf("after idle: %+v", d)
	}
	// Unknown owners are a no-op.
	c.RecordSteps("nope", 3, 1, 3)
	if got := c.Stats().Devices[0].BatchSteps; got != 4 {
		t.Fatalf("unknown-owner RecordSteps mutated device: steps = %d", got)
	}
}
