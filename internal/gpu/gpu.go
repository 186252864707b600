// Package gpu implements the hardware layer of LLM-MS: a simulated
// inventory of GPU devices with VRAM accounting, utilization and
// temperature telemetry, model placement, and CPU fallback.
//
// The paper's deployment runs on an NVIDIA Tesla V100 (32 GB) monitored
// through nvidia-smi; the upper layers consult the hardware layer for
// placement decisions and telemetry only. This package reproduces that
// contract: the computation layer asks a Cluster to place model weights,
// the application layer reads Snapshot for its monitoring endpoint, and
// when no device can hold a model the cluster falls back to CPU — the
// same degradation path the paper describes (§3.2).
package gpu

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// MiB and GiB are byte sizes used when declaring device and model memory.
const (
	MiB = 1 << 20
	GiB = 1 << 30
)

// DeviceSpec declares one simulated GPU.
type DeviceSpec struct {
	// Name is the marketing name reported by telemetry.
	Name string
	// VRAM is total device memory in bytes.
	VRAM uint64
}

// TeslaV100 is the paper's evaluation GPU.
var TeslaV100 = DeviceSpec{Name: "Tesla V100-PCIE-32GB", VRAM: 32 * GiB}

// Placement records where an allocation landed.
type Placement struct {
	// OnCPU is true when no GPU could hold the allocation.
	OnCPU bool
	// Device is the device index for GPU placements.
	Device int
	// Owner is the allocation's label (typically the model name).
	Owner string
	// Bytes is the reserved memory.
	Bytes uint64
}

// device is the mutable state of one simulated GPU.
type device struct {
	spec        DeviceSpec
	used        uint64
	allocations map[string]uint64 // owner -> bytes
	activeJobs  int
	batchSeqs   map[string]int // owner -> current batch occupancy
	batchSteps  uint64
	batchTokens uint64
}

// DeviceStat is a telemetry snapshot of one device, shaped after the
// fields nvidia-smi reports.
type DeviceStat struct {
	Index       int     `json:"index"`
	Name        string  `json:"name"`
	MemoryUsed  uint64  `json:"memory_used"`
	MemoryTotal uint64  `json:"memory_total"`
	Utilization float64 `json:"utilization"` // 0..100
	Temperature float64 `json:"temperature"` // °C, derived from Utilization
	// BatchSeqs is the device's current continuous-batch occupancy:
	// sequences being decoded together across all resident models.
	BatchSeqs int `json:"batch_seqs"`
	// BatchSteps and BatchTokens are cumulative batch-scheduler step
	// accounting: decode steps executed and tokens they produced.
	BatchSteps  uint64        `json:"batch_steps"`
	BatchTokens uint64        `json:"batch_tokens"`
	Processes   []ProcessStat `json:"processes"`
}

// ProcessStat is one resident allocation on a device.
type ProcessStat struct {
	Owner string `json:"owner"`
	Bytes uint64 `json:"bytes"`
}

// Snapshot is the cluster-wide telemetry view, the Go analogue of one
// nvidia-smi invocation, and the body of both servers' GET /api/gpu.
type Snapshot struct {
	Devices []DeviceStat `json:"devices"`
	// CPUResident lists allocations that fell back to system memory.
	CPUResident []ProcessStat `json:"cpu_resident"`
}

// The thermal model: a device reads ambientC idle and warms linearly
// with utilization, reaching maxTempC fully busy.
const (
	ambientC = 35
	maxTempC = 90
)

// Cluster is a set of simulated GPUs plus a CPU fallback pool. All
// methods are safe for concurrent use.
type Cluster struct {
	mu      sync.Mutex
	devices []*device
	cpu     map[string]uint64
}

// NewCluster builds a cluster with the given devices. An empty spec list
// models a CPU-only host (every allocation falls back).
func NewCluster(specs ...DeviceSpec) *Cluster {
	c := &Cluster{cpu: make(map[string]uint64)}
	for _, s := range specs {
		c.devices = append(c.devices, &device{
			spec:        s,
			allocations: make(map[string]uint64),
			batchSeqs:   make(map[string]int),
		})
	}
	return c
}

// Allocate reserves bytes for owner on the least-loaded device that can
// hold them, falling back to CPU when none can. Allocating twice for the
// same owner fails; release first.
func (c *Cluster) Allocate(owner string, bytes uint64) (Placement, error) {
	if owner == "" {
		return Placement{}, fmt.Errorf("gpu: empty owner")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.devices {
		if _, ok := d.allocations[owner]; ok {
			return Placement{}, fmt.Errorf("gpu: owner %q already resident on %s", owner, d.spec.Name)
		}
	}
	if _, ok := c.cpu[owner]; ok {
		return Placement{}, fmt.Errorf("gpu: owner %q already resident on CPU", owner)
	}

	// Least-used-fraction device with room wins; ties break on index.
	best := -1
	bestFrac := 2.0
	for i, d := range c.devices {
		if d.spec.VRAM-d.used < bytes {
			continue
		}
		frac := float64(d.used) / float64(d.spec.VRAM)
		if frac < bestFrac {
			best, bestFrac = i, frac
		}
	}
	if best == -1 {
		c.cpu[owner] = bytes
		return Placement{OnCPU: true, Owner: owner, Bytes: bytes}, nil
	}
	d := c.devices[best]
	d.used += bytes
	d.allocations[owner] = bytes
	return Placement{Device: best, Owner: owner, Bytes: bytes}, nil
}

// Release frees owner's allocation wherever it lives. Releasing an
// unknown owner is an error, surfacing double-free bugs early.
func (c *Cluster) Release(owner string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.devices {
		if b, ok := d.allocations[owner]; ok {
			d.used -= b
			delete(d.allocations, owner)
			return nil
		}
	}
	if _, ok := c.cpu[owner]; ok {
		delete(c.cpu, owner)
		return nil
	}
	return fmt.Errorf("gpu: release of unknown owner %q", owner)
}

// Resident reports whether owner currently holds memory anywhere.
func (c *Cluster) Resident(owner string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.devices {
		if _, ok := d.allocations[owner]; ok {
			return true
		}
	}
	_, ok := c.cpu[owner]
	return ok
}

// BeginJob marks owner's device busy for the duration of an inference
// job; the returned func ends the job. Utilization telemetry is derived
// from active jobs. CPU-resident owners are accepted and tracked as a
// no-op so callers need not branch.
func (c *Cluster) BeginJob(owner string) func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.devices {
		if _, ok := d.allocations[owner]; ok {
			d.activeJobs++
			dd := d
			var once sync.Once
			return func() {
				once.Do(func() {
					c.mu.Lock()
					defer c.mu.Unlock()
					if dd.activeJobs > 0 {
						dd.activeJobs--
					}
				})
			}
		}
	}
	return func() {}
}

// RecordSteps is the batch scheduler's accounting hook: seqs is the
// owner's current batch occupancy (0 clears it, e.g. when the batch
// drains idle), steps and tokens how many decode steps ran and tokens
// they produced since the last call — a scheduler whose occupancy is not
// changing accumulates them and reports when it does. Utilization
// telemetry folds occupancy in, so a device hosting one 8-sequence batch
// reads like one hosting 8 independent jobs. CPU-resident and unknown
// owners are a no-op, matching BeginJob.
func (c *Cluster) RecordSteps(owner string, seqs int, steps, tokens uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.devices {
		if _, ok := d.allocations[owner]; !ok {
			continue
		}
		if seqs > 0 {
			d.batchSeqs[owner] = seqs
		} else {
			delete(d.batchSeqs, owner)
		}
		d.batchSteps += steps
		d.batchTokens += tokens
		return
	}
}

// Stats returns the current telemetry snapshot.
func (c *Cluster) Stats() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := Snapshot{}
	for i, d := range c.devices {
		// A batch scheduler holds one job per model while stepping, so
		// occupancy beyond the first sequence per owner is extra load on
		// top of activeJobs.
		batchSeqs, extra := 0, 0
		for _, n := range d.batchSeqs {
			batchSeqs += n
			if n > 1 {
				extra += n - 1
			}
		}
		util := float64(d.activeJobs+extra) * 45
		if util > 100 {
			util = 100
		}
		stat := DeviceStat{
			Index:       i,
			Name:        d.spec.Name,
			MemoryUsed:  d.used,
			MemoryTotal: d.spec.VRAM,
			Utilization: util,
			Temperature: ambientC + (maxTempC-ambientC)*util/100,
			BatchSeqs:   batchSeqs,
			BatchSteps:  d.batchSteps,
			BatchTokens: d.batchTokens,
		}
		for owner, b := range d.allocations {
			stat.Processes = append(stat.Processes, ProcessStat{Owner: owner, Bytes: b})
		}
		sort.Slice(stat.Processes, func(a, b int) bool { return stat.Processes[a].Owner < stat.Processes[b].Owner })
		snap.Devices = append(snap.Devices, stat)
	}
	for owner, b := range c.cpu {
		snap.CPUResident = append(snap.CPUResident, ProcessStat{Owner: owner, Bytes: b})
	}
	sort.Slice(snap.CPUResident, func(a, b int) bool { return snap.CPUResident[a].Owner < snap.CPUResident[b].Owner })
	return snap
}

// String renders the snapshot in an nvidia-smi-inspired table, for CLIs
// (evalrunner -setup).
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %-24s %12s %6s %6s\n", "GPU", "Name", "Memory", "Util", "Temp")
	for _, d := range s.Devices {
		fmt.Fprintf(&b, "%-3d %-24s %5d/%5dMiB %5.0f%% %5.0fC\n",
			d.Index, d.Name, d.MemoryUsed/MiB, d.MemoryTotal/MiB, d.Utilization, d.Temperature)
		for _, p := range d.Processes {
			fmt.Fprintf(&b, "    └─ %-20s %6dMiB\n", p.Owner, p.Bytes/MiB)
		}
	}
	if len(s.CPUResident) > 0 {
		fmt.Fprintf(&b, "CPU fallback:\n")
		for _, p := range s.CPUResident {
			fmt.Fprintf(&b, "    └─ %-20s %6dMiB\n", p.Owner, p.Bytes/MiB)
		}
	}
	return b.String()
}
