package speculation

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestRunAsyncDrainsGraph: the barrier-free drive processes a conflict
// graph to completion with the same correctness invariants as rounds.
func TestRunAsyncDrainsGraph(t *testing.T) {
	r := rng.New(1)
	g := graph.RandomGNM(r, 400, 1600)
	wl := NewGraphWorkload(g)
	e := NewGraphExecutor(wl, r.Split())
	ctrl := control.NewHybrid(control.DefaultHybridConfig(0.3))
	res := driveAll(context.Background(), e, ctrl, Options{Mode: ModeAsync})
	if res.Canceled {
		t.Fatalf("drain reported canceled")
	}
	if e.Pending() != 0 {
		t.Fatalf("%d tasks pending after drain", e.Pending())
	}
	if wl.Graph().NumNodes() != 0 {
		t.Fatalf("%d nodes survive", wl.Graph().NumNodes())
	}
	if res.Committed != 400 || e.TotalCommitted() != 400 {
		t.Fatalf("committed %d (executor %d), want 400", res.Committed, e.TotalCommitted())
	}
	if res.Launched != res.Committed+res.Aborted+res.Failed {
		t.Fatalf("outcome accounting inconsistent: %+v", res)
	}
	if len(res.Trajectory) == 0 || res.Samples != len(res.Trajectory) {
		t.Fatalf("trajectory: %d samples, Samples=%d", len(res.Trajectory), res.Samples)
	}
	// Like a round, a window always commits something: losers spinning
	// against an unsettled holder must not close windows of pure aborts.
	// (The last sample is the drain's leftover, flushed as is: an abort
	// can be recorded after its own retry has already committed.)
	for _, s := range res.Trajectory[:len(res.Trajectory)-1] {
		if s.Committed == 0 {
			t.Fatalf("sample %d closed with no commit: %+v", s.Index, s)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAsyncGoroutineLeak: workers and the watcher all exit once the
// drive returns — repeated drives do not accumulate goroutines.
func TestRunAsyncGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		r := rng.New(uint64(i + 1))
		g := graph.RandomGNM(r, 150, 500)
		wl := NewGraphWorkload(g)
		e := NewGraphExecutor(wl, r.Split())
		driveAll(context.Background(), e, control.NewHybrid(control.DefaultHybridConfig(0.3)), Options{Mode: ModeAsync})
		e.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunAsyncCancel: cancellation at the in-flight semaphore stops
// new launches promptly; in-flight tasks settle, nothing is lost, and
// the run reports Canceled.
func TestRunAsyncCancel(t *testing.T) {
	e := NewExecutor(nil)
	var started atomic.Int64
	release := make(chan struct{})
	const n = 200
	for i := 0; i < n; i++ {
		e.Add(TaskFunc(func(ctx *Ctx) error {
			started.Add(1)
			<-release
			return nil
		}))
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan driven, 1)
	go func() {
		done <- driveAll(ctx, e, control.Fixed{Procs: 4}, Options{Mode: ModeAsync})
	}()
	for started.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	// With all 4 slots occupied by blocked tasks, no new launch can
	// happen until one of them settles — give the watcher time to stop
	// the run first, then unblock them.
	time.Sleep(200 * time.Millisecond)
	close(release)
	var res driven
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the async drive did not return after cancel")
	}
	if !res.Canceled {
		t.Fatalf("Canceled=false after context cancellation")
	}
	if got := started.Load(); got != 4 {
		t.Fatalf("%d tasks started, want exactly the 4 in flight at cancel", got)
	}
	// Accounting: every submitted task is either committed or pending.
	if res.Committed+int64(e.Pending()) != n {
		t.Fatalf("lost tasks: committed %d + pending %d != %d",
			res.Committed, e.Pending(), n)
	}
}

// TestRunAsyncMaxCommits: the drive stops at the commit bound and
// leaves the remainder pending.
func TestRunAsyncMaxCommits(t *testing.T) {
	e := NewExecutor(nil)
	for i := 0; i < 500; i++ {
		e.Add(TaskFunc(func(ctx *Ctx) error { return nil }))
	}
	res := driveAll(context.Background(), e, control.Fixed{Procs: 8}, Options{Mode: ModeAsync, MaxCommits: 100})
	if res.Canceled {
		t.Fatalf("bounded stop reported canceled")
	}
	// In-flight tasks settle after the bound trips, so allow the
	// in-flight overshoot but no more.
	if res.Committed < 100 || res.Committed > 100+8 {
		t.Fatalf("committed %d, want 100..108", res.Committed)
	}
	if res.Committed+int64(e.Pending()) != 500 {
		t.Fatalf("lost tasks: %d committed, %d pending", res.Committed, e.Pending())
	}
}

// TestRunAsyncLimitRespected: the resizable semaphore never admits
// more than the controller's m tasks concurrently.
func TestRunAsyncLimitRespected(t *testing.T) {
	e := NewExecutor(nil)
	var cur, peak atomic.Int64
	for i := 0; i < 300; i++ {
		e.Add(TaskFunc(func(ctx *Ctx) error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(50 * time.Microsecond)
			cur.Add(-1)
			return nil
		}))
	}
	const m = 5
	driveAll(context.Background(), e, control.Fixed{Procs: m}, Options{Mode: ModeAsync})
	if p := peak.Load(); p > m {
		t.Fatalf("observed %d concurrent tasks, limit %d", p, m)
	}
}

// TestRunAsyncQuarantineExcluded: failures and poisoned tasks never
// reach the windowed conflict-ratio estimator — a workload that only
// commits or fails must report r = 0 in every sample.
func TestRunAsyncQuarantineExcluded(t *testing.T) {
	e := NewExecutor(nil)
	e.TaskRetries = 2
	boom := errors.New("injected failure")
	const bad, good = 40, 400
	for i := 0; i < bad; i++ {
		e.Add(TaskFunc(func(ctx *Ctx) error { return boom }))
	}
	for i := 0; i < good; i++ {
		e.Add(TaskFunc(func(ctx *Ctx) error { return nil }))
	}
	res := driveAll(context.Background(), e, control.Fixed{Procs: 4}, Options{Mode: ModeAsync, Window: 16})
	for _, s := range res.Trajectory {
		if s.R != 0 {
			t.Fatalf("sample %d: r=%v from failures (want 0): %+v", s.Index, s.R, s)
		}
	}
	if res.Poisoned != bad {
		t.Fatalf("poisoned %d, want %d", res.Poisoned, bad)
	}
	if res.Failed != bad*3 {
		// TaskRetries=2 → budget 2 → 3 failed attempts per poisoned task.
		t.Fatalf("failed attempts %d, want %d", res.Failed, bad*3)
	}
	if got := len(e.PoisonedTasks()); got != bad {
		t.Fatalf("quarantine holds %d records, want %d", got, bad)
	}
	if res.Committed != good || e.Pending() != 0 {
		t.Fatalf("committed %d pending %d, want %d/0", res.Committed, e.Pending(), good)
	}
}

// TestRunAsyncSampleOrdering: OnSample sees samples in index order
// with a non-decreasing absolute commit counter, and matches the
// trajectory exactly.
func TestRunAsyncSampleOrdering(t *testing.T) {
	r := rng.New(3)
	g := graph.RandomGNM(r, 300, 900)
	wl := NewGraphWorkload(g)
	e := NewGraphExecutor(wl, r.Split())
	var seen []Sample
	res := driveAll(context.Background(), e, control.NewHybrid(control.DefaultHybridConfig(0.3)), Options{Mode: ModeAsync, OnRound: func(s Sample) { seen = append(seen, s) }})
	if len(seen) != len(res.Trajectory) {
		t.Fatalf("OnRound saw %d samples, trajectory has %d", len(seen), len(res.Trajectory))
	}
	var lastCommits int64
	for i, s := range seen {
		if s.Index != i {
			t.Fatalf("sample %d delivered at position %d", s.Index, i)
		}
		if s.TotalCommitted < lastCommits {
			t.Fatalf("TotalCommitted went backwards: %d after %d", s.TotalCommitted, lastCommits)
		}
		lastCommits = s.TotalCommitted
		if s.M < 1 {
			t.Fatalf("sample %d: m=%d", i, s.M)
		}
	}
	if lastCommits > res.Committed {
		t.Fatalf("trajectory commits %d exceed total %d", lastCommits, res.Committed)
	}
}

// TestRunAsyncSpawn: commit-time spawns enter the work-set and run.
func TestRunAsyncSpawn(t *testing.T) {
	e := NewExecutor(nil)
	var leaves atomic.Int64
	var mk func(depth int) Task
	mk = func(depth int) Task {
		return TaskFunc(func(ctx *Ctx) error {
			if depth == 0 {
				leaves.Add(1)
				return nil
			}
			ctx.Spawn(mk(depth - 1))
			ctx.Spawn(mk(depth - 1))
			return nil
		})
	}
	e.Add(mk(5))
	res := driveAll(context.Background(), e, control.Fixed{Procs: 4}, Options{Mode: ModeAsync})
	if leaves.Load() != 32 {
		t.Fatalf("%d leaves ran, want 32", leaves.Load())
	}
	if res.Spawned != 62 {
		t.Fatalf("spawned %d, want 62", res.Spawned)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d pending after spawn drain", e.Pending())
	}
}
