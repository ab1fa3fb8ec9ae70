package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this runs in is a small VM on a shared host, and its speed
// drifts: the same seed on the same binary moved jobs_per_s between 5.3 and
// 9.7 over an afternoon, in spells of minutes, with cpu_ms_per_job moving
// the opposite way by the same factor — the vCPUs got slower, not scarcer.
// A register-only spin loop did not see it and a pointer chase saw a third
// of it; a kernel that fills and empties a Go map, sampled every 20 ms all
// through the measurement, tracked it to within ±5 % (timing it in short
// bursts before and after did not: the interference is bursty too). So a
// run reports its end-to-end metrics at a reference machine speed: with s =
// kernel time during the run ÷ calibRefMs, times are divided and rates
// multiplied by 1 + share·(s−1), where share is how much of the workload's
// time follows the kernel (workloadDef.speedShare). The raw values and s
// are printed beside them.
//
// The kernel is the benchmark's own code, so that no change to the
// repository moves it; it is timed on the thread's CPU clock, so that
// waiting for a vCPU the servers are using does not count; it costs under
// 2 % of one vCPU.

// calibRefMs is the kernel's time on the sandbox the benchmark was sized
// on, in a quiet spell. It only fixes the scale: a comparison between two
// commits does not depend on it.
const calibRefMs = 0.33

const calibEvery = 20 * time.Millisecond

var calibSink int // keeps the kernel's result alive

// calibKernel builds a 1000-node, degree-8 adjacency map and takes it apart
// again: map inserts, slice growth, deletes and the garbage they make —
// the kind of work the executor and the workloads do.
func calibKernel() {
	adj := make(map[int][]int, 1000)
	for v := 0; v < 1000; v++ {
		for d := 1; d <= 8; d++ {
			adj[v] = append(adj[v], (v*7+d*131)%1000)
		}
	}
	for v := 0; v < 1000; v++ {
		calibSink += len(adj[v])
		delete(adj, v)
	}
}

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedSampler times the kernel every calibEvery until stopped.
type speedSampler struct {
	stop   chan struct{}
	result chan float64
}

func startSpeedSampler() *speedSampler {
	s := &speedSampler{stop: make(chan struct{}), result: make(chan float64, 1)}
	go func() {
		runtime.LockOSThread() // the CPU clock is per thread
		defer runtime.UnlockOSThread()
		var samples []float64
		for {
			select {
			case <-s.stop:
				s.result <- median(samples)
				return
			case <-time.After(calibEvery):
			}
			t0 := threadCPU()
			calibKernel()
			samples = append(samples, ms(threadCPU()-t0))
		}
	}()
	return s
}

// index stops the sampler and returns the machine's slowness over its
// lifetime: 1 at the reference speed, 1.3 when the kernel took 30 % longer.
func (s *speedSampler) index() float64 {
	close(s.stop)
	if m := <-s.result; m > 0 {
		return m / calibRefMs
	}
	return 1 // stopped before the first sample
}
