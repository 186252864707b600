package main

import (
	"encoding/json"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The speedometer. On the shared two-core sandbox the same binary on the
// same inputs runs up to half again as slow for seconds or minutes at a
// time, because neighbours contend for the cores' execution units and
// caches: user and system CPU per query rise together with latency, and
// no steal time is reported. A run cannot average that away, so it
// measures it: beside the load, a goroutine times a fixed piece of
// harness-owned work (JSON and integer arithmetic, the stack's own
// instruction mix) by its thread's CPU clock, which waiting for a core
// does not advance. The timings of an unpaced workload are then reported
// at reference speed: each block's value is scaled by probeRef over the
// block's mean probe time (run.go). Over ten seeds in a busy spell that
// took the spread of CPU per query from 11–26 % to 4 % and that of the
// latencies and throughput from 13–23 % to 5–16 %; README.md has the
// table.

// probeRef is how long the probe takes on the reference box when its
// neighbours are quiet. It fixes the unit of the scaled timings.
const probeRef = 320 * time.Microsecond

// probeEvery is the pause between probes: the probe then costs about 2 %
// of one core.
const probeEvery = 20 * time.Millisecond

var probeDoc = func() []map[string]any {
	var d []map[string]any
	for i := 0; i < 40; i++ {
		d = append(d, map[string]any{
			"id": i, "name": "chunk of text for the probe", "score": float64(i) * 0.37,
			"tags": []string{"a", "bb", "ccc"}, "ok": i%2 == 0,
		})
	}
	return d
}()

var probeTable = make([]byte, 64<<10)

// probeSink keeps the compiler from removing the probe's arithmetic.
var probeSink uint64

// probeWork is the fixed work: encode and decode a small document, then
// four integer chains over a table that fits the first-level cache.
func probeWork() {
	data, err := json.Marshal(probeDoc)
	if err != nil {
		panic(err) // plain data
	}
	var back []map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err) // what Marshal wrote
	}
	var a, b, c, d uint64 = 1, 2, 3, 4
	for i := 0; i < 50000; i++ {
		a = a*3 + uint64(probeTable[i&0xffff])
		b = b*5 + uint64(probeTable[(i*7)&0xffff])
		c ^= c<<3 + a
		d += b >> 2
	}
	probeSink = a + b + c + d + uint64(len(back))
}

// threadCPU is the calling thread's CPU time so far.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// probeSample is one probe: when it ended and the CPU time it took.
type probeSample struct {
	At  time.Time
	CPU time.Duration
}

// speedometer probes on its own thread until stopped.
type speedometer struct {
	quit    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []probeSample
}

func startSpeedometer() *speedometer {
	s := &speedometer{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// The thread's CPU clock is only this goroutine's while no other
		// goroutine can run on the thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for {
			select {
			case <-s.quit:
				return
			case <-time.After(probeEvery):
			}
			start := threadCPU()
			probeWork()
			p := probeSample{CPU: threadCPU() - start, At: time.Now()}
			s.mu.Lock()
			s.samples = append(s.samples, p)
			s.mu.Unlock()
		}
	}()
	return s
}

// stop ends the probing and returns every sample.
func (s *speedometer) stop() []probeSample {
	close(s.quit)
	<-s.done
	return s.samples
}

// slowdown is the mean probe time over [from, to] as a multiple of
// probeRef: how much slower than the reference the machine ran then. A
// window without a probe reads 1.
func slowdown(samples []probeSample, from, to time.Time) float64 {
	var sum time.Duration
	n := 0
	for _, p := range samples {
		if !p.At.Before(from) && !p.At.After(to) {
			sum += p.CPU
			n++
		}
	}
	if n == 0 || sum <= 0 {
		return 1
	}
	return float64(sum) / float64(n) / float64(probeRef)
}
