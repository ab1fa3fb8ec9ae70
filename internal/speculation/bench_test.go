package speculation

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/rng"
)

// spinSink defeats dead-code elimination of the benchmark spin loops.
var spinSink atomic.Int64

// spinTask returns a conflict-free task burning roughly `work` iterations
// of ALU work, modelling a small irregular-algorithm operator.
func spinTask(work int) Task {
	return TaskFunc(func(ctx *Ctx) error {
		acc := int64(1)
		for i := 0; i < work; i++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
		spinSink.Store(acc)
		return nil
	})
}

// benchRound measures steady-state round throughput: every iteration
// enqueues m fresh tasks and runs one round of m, so the scheduler's
// per-task overhead (dispatch, work-set access, Ctx setup, accounting)
// dominates for small work sizes.
func benchRound(b *testing.B, m, maxPar, work int) {
	e := NewExecutor(nil)
	e.MaxParallel = maxPar
	defer e.Close()
	t := spinTask(work)
	wakes, _ := HelperCounts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < m; j++ {
			e.Add(t)
		}
		e.Round(m)
	}
	b.StopTimer()
	reportRound(b, wakes, b.N*m)
}

// reportRound adds the tasks/sec and helper wakes per round of a finished
// round benchmark, given the pool's wake count before it.
func reportRound(b *testing.B, wakesBefore int64, launched int) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(launched)/secs, "tasks/sec")
	}
	wakes, _ := HelperCounts()
	b.ReportMetric(float64(wakes-wakesBefore)/float64(b.N), "wakes/op")
}

// BenchmarkExecutorRound prices one round at one participant and at two:
// no-op tasks (a round far shorter than a helper's wake-up, so the pool
// learns to run it alone), spinning tasks (long enough for a helper to
// pay), and the abort/requeue path. One op is one round.
func BenchmarkExecutorRound(b *testing.B) {
	for _, par := range []int{1, 2} {
		for _, cfg := range []struct {
			name    string
			m, work int
		}{
			{"tiny/m=64", 64, 0},
			{"small/m=512", 512, 200},
		} {
			b.Run(fmt.Sprintf("%s/par=%d", cfg.name, par), func(b *testing.B) {
				benchRound(b, cfg.m, par, cfg.work)
			})
		}
		// All tasks fight over a handful of items, so most launches abort
		// and flow through the requeue on every round.
		b.Run(fmt.Sprintf("conflict-heavy/m=256/par=%d", par), func(b *testing.B) {
			e, topUp := conflictHeavyExecutor(256, par)
			defer e.Close()
			wakes, _ := HelperCounts()
			b.ReportAllocs()
			b.ResetTimer()
			launched := 0
			for i := 0; i < b.N; i++ {
				st := e.Round(256)
				launched += st.Launched
				topUp(st.Committed)
			}
			b.StopTimer()
			reportRound(b, wakes, launched)
		})
	}
}

// BenchmarkExecutorOrdered prices an ordered round's fixed cost — pop,
// phase 1 on the pool, the commit walk, requeue — on claim-only tasks at
// MaxParallel 2, from the small m where des spends most of its rounds to a
// full chunk. Those rows hold only the round's m tasks; deep/m=2 pops them
// off 4096 pending ones, as des does, so the heap's cost shows. One op is
// one round.
func BenchmarkExecutorOrdered(b *testing.B) {
	run := func(b *testing.B, e *OrderedExecutor, round func()) {
		defer e.Close()
		round()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	}
	for _, m := range []int{2, 4, 64} {
		b.Run(fmt.Sprintf("claim/m=%d/par=2", m), func(b *testing.B) {
			e, round := claimOnlyOrdered(m, 2)
			run(b, e, round)
		})
	}
	b.Run("deep/m=2", func(b *testing.B) {
		e, round := deepOrdered(2, 4096, 2)
		run(b, e, round)
	})
}

// conflictHeavyExecutor returns a pooled executor holding n tasks that
// fight over four items, and the function that tops the work-set back up
// after a round: committed tasks leave for good, so adding as many back
// keeps the round size constant.
func conflictHeavyExecutor(n, maxPar int) (e *Executor, topUp func(committed int)) {
	e = NewExecutor(nil)
	e.MaxParallel = maxPar
	tasks := make([]Task, 4)
	for i := range tasks {
		it := NewItem(int64(i))
		tasks[i] = TaskFunc(func(ctx *Ctx) error { return ctx.Acquire(it) })
	}
	topUp = func(committed int) {
		for j := 0; j < committed; j++ {
			e.Add(tasks[j%len(tasks)])
		}
	}
	topUp(n)
	return e, topUp
}

// benchStragglerTasks enqueues n conflict-free tasks with a
// high-variance cost distribution: every stragglerEvery-th task blocks
// for stragglerSleep (an I/O-ish long-tail operator), the rest do a
// short ALU spin. In round mode the whole round joins on its slowest
// straggler; barrier-free execution lets the fast tasks flow past.
const (
	stragglerEvery = 16
	stragglerSleep = 400 * time.Microsecond
	stragglerM     = 64
)

func benchStragglerTasks(e *Executor, n int) {
	fast := spinTask(200)
	slow := TaskFunc(func(ctx *Ctx) error {
		time.Sleep(stragglerSleep)
		return nil
	})
	for i := 0; i < n; i++ {
		if i%stragglerEvery == 0 {
			e.Add(slow)
		} else {
			e.Add(fast)
		}
	}
}

// BenchmarkExecutorAsync compares round-barrier and barrier-free
// execution on the straggler workload at the same concurrency budget
// (m = 64, fixed). One benchmark op is one committed task, so ns/op is
// directly comparable across the two sub-benchmarks — the async/round
// ratio is the round-tail idle time the barrier costs.
func BenchmarkExecutorAsync(b *testing.B) {
	b.Run("straggler/round", func(b *testing.B) {
		e := NewExecutor(nil)
		e.MaxParallel = stragglerM
		benchStragglerTasks(e, b.N)
		b.ResetTimer()
		for e.Pending() > 0 {
			e.Round(stragglerM)
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "tasks/sec")
		}
		e.Close()
	})
	b.Run("straggler/async", func(b *testing.B) {
		e := NewExecutor(nil)
		e.MaxParallel = stragglerM
		benchStragglerTasks(e, b.N)
		b.ResetTimer()
		Drive(context.Background(), e, control.Fixed{Procs: stragglerM}, Options{Mode: ModeAsync})
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "tasks/sec")
		}
		e.Close()
	})
}

// coloredTopologies are the stable-conflict graphs the colored
// benchmarks drain.
var coloredTopologies = []struct {
	name  string
	build func() *graph.Graph
}{
	// mesh-like: planar grid adjacency, bounded degree.
	{"mesh", func() *graph.Graph { return graph.Grid2D(16, 16) }},
	// cluster-like: irregular random conflicts, skewed degrees.
	{"cluster", func() *graph.Graph {
		return graph.RandomWithAvgDegree(rng.New(17), 256, 8.0)
	}},
}

// BenchmarkExecutorColored compares the three drive modes — round-
// barrier speculation, barrier-free async, and colored — on
// stable-conflict workloads whose tasks declare a footprint that never
// changes round over round (the colored mode's sweet spot). One
// benchmark op is one committed chain step, so ns/op is directly
// comparable across sub-benchmarks. The colored drive colors the
// declared graph once and runs every super-round as one round per color
// class: a walk that finds nothing to abort, and no controller. All
// three modes run under the same hybrid controller at ρ=0.25 (colored
// rounds are invisible to it by design).
func BenchmarkExecutorColored(b *testing.B) {
	cpu := runtime.NumCPU()
	report := func(b *testing.B, committed int64) {
		if secs := b.Elapsed().Seconds(); secs > 0 && committed > 0 {
			b.ReportMetric(float64(committed)/secs, "tasks/sec")
		}
	}
	for _, topo := range coloredTopologies {
		b.Run(topo.name+"/round", func(b *testing.B) {
			e, _, _ := buildStableFixture(topo.build(), b.N, cpu, 7)
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			Drive(context.Background(), e, testHybrid(0.25), Options{MaxCommits: int64(b.N)})
			b.StopTimer()
			report(b, e.TotalCommitted())
		})
		b.Run(topo.name+"/async", func(b *testing.B) {
			e, _, _ := buildStableFixture(topo.build(), b.N, cpu, 7)
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			Drive(context.Background(), e, testHybrid(0.25), Options{Mode: ModeAsync, MaxCommits: int64(b.N)})
			b.StopTimer()
			report(b, e.TotalCommitted())
		})
		b.Run(topo.name+"/colored", func(b *testing.B) {
			e, _, _ := buildStableFixture(topo.build(), b.N, cpu, 7)
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			res, _ := Drive(context.Background(), e, testHybrid(0.25), Options{Mode: ModeColored, MaxCommits: int64(b.N)})
			b.StopTimer()
			report(b, e.TotalCommitted())
			if res.ColoredAborts != 0 {
				b.Fatalf("colored rounds aborted %d tasks on a stable workload", res.ColoredAborts)
			}
			if res.SpecRounds != 0 || res.ColoredCommits != res.Committed {
				b.Fatalf("declared drive left the colored phase: %+v", res)
			}
		})
	}
}

// BenchmarkDeclaredGraph prices the declare phase on the cc graph the
// end-to-end benchmark drains (n = 10000, average degree 16): one op
// builds the ConflictGraph from the declarations and colors it. The
// yardstick is round-drain, a whole round-mode drain of the same graph —
// declaring must not cost more than the execution it replaces — and the
// allocation count must not depend on n.
func BenchmarkDeclaredGraph(b *testing.B) {
	const n, d = 10000, 16
	b.Run("declare+color", func(b *testing.B) {
		e := ccExecutor(1, n, d)
		defer e.Close()
		var cs coloredState
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cg := e.declare(&cs)
			cs.colors, _ = graph.ColorCSR(cg.CSR(), cs.colors)
		}
	})
	b.Run("round-drain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := ccExecutor(1, n, d)
			e.MaxParallel = 2
			b.StartTimer()
			Drive(context.Background(), e, control.NewHybrid(control.DefaultHybridConfig(0.25)), Options{})
			e.Close()
		}
	})
}
