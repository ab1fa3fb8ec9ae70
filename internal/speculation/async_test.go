package speculation

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
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

// TestRunAsyncGoroutineLeak: the watcher exits once the drive returns —
// repeated drives do not accumulate goroutines beyond the process's
// helpers, which park for the next dispatch.
func TestRunAsyncGoroutineLeak(t *testing.T) {
	others := func() int { return runtime.NumGoroutine() - int(helpers.started.Load()) }
	before := others()
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
		if n := others(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d (helpers not counted)\n%s",
				before, others(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunAsyncCancel: cancellation with the in-flight limit reached
// stops new claims promptly; in-flight tasks settle, nothing is lost,
// and the run reports Canceled. It runs on a fresh executor and on one
// whose pool learned, from cheap rounds, to stop waking its helpers: the
// four blocked tasks must overlap either way, so an async drive wakes
// every participant whatever the round backoff says.
func TestRunAsyncCancel(t *testing.T) {
	for _, backedOff := range []bool{false, true} {
		t.Run(fmt.Sprintf("backed-off=%v", backedOff), func(t *testing.T) {
			e := NewExecutor(nil)
			defer e.Close()
			e.MaxParallel = 4 // the four blocked tasks must overlap: one participant per unit of m
			if backedOff {
				backOffPool(t, e)
			}
			testAsyncCancel(t, e)
		})
	}
}

// backOffPool drives e's pool to the longest backoff with rounds of no-op
// indices that end before a parked helper can wake, as
// TestWorkerPoolBacksOffLateHelpers does, and leaves it skipping.
func backOffPool(t *testing.T, e *Executor) {
	for k := 0; k < 1<<14; k++ {
		e.dispatch(e.MaxParallel, 64, func(int) {}, false)
		for len(helpers.wake) > 0 {
			runtime.Gosched()
		}
		if e.backoff == maxBackoff && e.skip > 0 {
			return
		}
	}
	t.Fatalf("pool backoff at %d after %d cheap rounds, want %d", e.backoff, 1<<14, maxBackoff)
}

func testAsyncCancel(t *testing.T, e *Executor) {
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
	for deadline := time.Now().Add(10 * time.Second); started.Load() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d of the 4 blocked tasks started in 10 s: the participants do not overlap", started.Load())
		}
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
	// Accounting: every submitted task is either committed or pending,
	// and the four that settled after the stop are in a sample: a
	// controller that outlives the drive has observed them.
	if res.Committed+int64(e.Pending()) != n {
		t.Fatalf("lost tasks: committed %d + pending %d != %d",
			res.Committed, e.Pending(), n)
	}
	checkSamplesSumToResult(t, res)
}

// TestRunAsyncWakesParkedWorker0: worker 0, the Drive goroutine, is the
// one that delivers samples. A window another participant flushes while
// worker 0 is parked for want of room must wake it to deliver.
func TestRunAsyncWakesParkedWorker0(t *testing.T) {
	delivered := make(chan Sample, 1)
	d := &drive{ctx: context.Background(), ctrl: control.Fixed{Procs: 1},
		opts: Options{Mode: ModeAsync, OnRound: func(s Sample) { delivered <- s }}}
	a := &asyncRun{e: NewExecutor(nil), d: d, workers: 2}
	a.cond = sync.NewCond(&a.mu)
	a.setLimitLocked(1)
	a.inflight = 1 // a helper's chunk holds the only room
	claimed := make(chan bool)
	go func() {
		var w asyncWorker
		a.mu.Lock()
		defer a.mu.Unlock()
		claimed <- a.claimLocked(&w, true)
	}()
	for parked := false; !parked; runtime.Gosched() {
		a.mu.Lock()
		parked = a.parked0
		a.mu.Unlock()
	}
	a.mu.Lock()
	a.win.Committed = 1 // the helper's chunk committed and closes the window
	a.flushSampleLocked()
	a.mu.Unlock()
	select {
	case <-delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("a sample flushed while worker 0 was parked was not delivered in 10 s")
	}
	a.mu.Lock()
	a.finishLocked(false)
	a.mu.Unlock()
	if <-claimed {
		t.Fatal("worker 0 claimed a chunk from an empty work-set")
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

// TestRunAsyncLimitRespected: the in-flight limit never admits more than
// the controller's m tasks concurrently, however many workers there are.
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
	e.MaxParallel = 8 // more workers than m, so the limit is what binds
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
	res := driveAll(context.Background(), e, control.Fixed{Procs: 4}, Options{Mode: ModeAsync})
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

// TestRunAsyncWindowSize: a window closes once its commits plus aborts
// reach the in-flight limit m — failed attempts never count towards it —
// and only the drive's final window may be short.
func TestRunAsyncWindowSize(t *testing.T) {
	boom := errors.New("injected failure")
	t.Run("adaptive", func(t *testing.T) {
		e := NewExecutor(nil)
		e.TaskRetries = 1
		const m, tasks, bad = 8, 400, 40
		for i := 0; i < tasks; i++ {
			if i%(tasks/bad) == 0 {
				e.Add(TaskFunc(func(ctx *Ctx) error { return boom }))
			} else {
				e.Add(TaskFunc(func(ctx *Ctx) error { return nil }))
			}
		}
		res := driveAll(context.Background(), e, control.Fixed{Procs: m}, Options{Mode: ModeAsync})
		last := len(res.Trajectory) - 1
		for i, s := range res.Trajectory {
			if n := s.Committed + s.Aborted; n < m && i != last {
				t.Fatalf("sample %d closed at %d outcomes, want >= %d: %+v", i, n, m, s)
			}
		}
		if res.Committed != tasks-bad || res.Poisoned != bad {
			t.Fatalf("committed %d poisoned %d, want %d/%d", res.Committed, res.Poisoned, tasks-bad, bad)
		}
	})
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

// TestRunAsyncCommitActionChain: work a commit action adds is work the
// drive must run. Each task's OnCommit adds the next, 50 deep, so the
// work-set is empty and nothing is in flight every time the last
// commit's action has yet to run; one drive must still commit all 51.
func TestRunAsyncCommitActionChain(t *testing.T) {
	const depth = 50
	e := NewExecutor(nil)
	defer e.Close()
	var mk func(k int) Task
	mk = func(k int) Task {
		return TaskFunc(func(ctx *Ctx) error {
			if k < depth {
				ctx.OnCommit(func() { e.Add(mk(k + 1)) })
			}
			return nil
		})
	}
	e.Add(mk(0))
	res := driveAll(context.Background(), e, control.Fixed{Procs: 4}, Options{Mode: ModeAsync})
	if res.Committed != depth+1 || e.Pending() != 0 {
		t.Fatalf("committed %d with %d pending, want %d and 0", res.Committed, e.Pending(), depth+1)
	}
}

// TestRunAsyncChunkedLimit: m is an allocation, not a thread count. Two
// participants serve a limit of 16 in chunks of two: never more than two
// attempts execute at once, never more than 16 entries are out of the
// work-set unsettled, and a commit bound overshoots by less than the
// limit. The participants are the Drive goroutine and one of the pool's
// helpers, however large m is, and no drive starts a goroutine of its own.
func TestRunAsyncChunkedLimit(t *testing.T) {
	const n, limit, bound = 500, 16, 100
	e := NewExecutor(nil)
	defer e.Close()
	e.MaxParallel = 2
	others := func() int64 { return int64(runtime.NumGoroutine()) - helpers.started.Load() }
	before := others()
	var running, peakRunning, peakClaimed, peakGoroutines atomic.Int64
	raise := func(peak *atomic.Int64, v int64) {
		for p := peak.Load(); v > p && !peak.CompareAndSwap(p, v); p = peak.Load() {
		}
	}
	for i := 0; i < n; i++ {
		e.Add(TaskFunc(func(*Ctx) error {
			raise(&peakRunning, running.Add(1))
			// Every task commits, so what is neither pending nor counted as
			// committed has been claimed and not settled (this task included).
			raise(&peakClaimed, n-int64(e.Pending())-e.TotalCommitted())
			raise(&peakGoroutines, others())
			runtime.Gosched()
			running.Add(-1)
			return nil
		}))
	}
	res := driveAll(context.Background(), e, control.Fixed{Procs: limit}, Options{Mode: ModeAsync, MaxCommits: bound})
	if p := peakRunning.Load(); p > 2 {
		t.Errorf("%d attempts executed at once on 2 workers", p)
	}
	if p := peakClaimed.Load(); p < 1 || p > limit {
		t.Errorf("%d entries claimed and unsettled, limit %d", p, limit)
	}
	for _, s := range res.Trajectory {
		if s.InFlight > limit {
			t.Errorf("sample %d closed with %d in flight, limit %d", s.Index, s.InFlight, limit)
		}
	}
	if res.Committed < bound || res.Committed >= bound+limit {
		t.Errorf("committed %d, want [%d, %d)", res.Committed, bound, bound+limit)
	}
	if res.Committed+int64(e.Pending()) != n {
		t.Errorf("lost tasks: %d committed, %d pending of %d", res.Committed, e.Pending(), n)
	}
	if p := peakGoroutines.Load(); p > before {
		t.Errorf("%d goroutines besides the pool's helpers during the drive, %d before it", p, before)
	}

	peakGoroutines.Store(0)
	driveAll(context.Background(), e, control.Fixed{Procs: DefaultMaxInFlight}, Options{Mode: ModeAsync})
	if p := peakGoroutines.Load(); p > before || e.Pending() != 0 {
		t.Errorf("m=%d: %d goroutines besides the pool's helpers (%d before), %d pending", DefaultMaxInFlight, p, before, e.Pending())
	}
}

// TestRunAsyncWindowHoldsChunkLocks: a chunk's commits keep their locks
// under their own attempt IDs, so the next task of the same chunk loses
// to them like any other, and nothing is released — and no action runs —
// before the window boundary. One worker, so the schedule is exact:
// with m = 8 a chunk is two entries, and the first window of eight
// outcomes holds the commits of a, c and d and five aborts of b, which
// loses to a's lock on x until the boundary releases it.
func TestRunAsyncWindowHoldsChunkLocks(t *testing.T) {
	e := NewExecutor(nil)
	defer e.Close()
	e.MaxParallel = 1
	x, y, z := NewItem(1), NewItem(2), NewItem(3)
	var commitOrder, actionOrder []string
	heldInAction := map[string]bool{}
	task := func(name string, it *Item, alsoHeld ...*Item) Task {
		return TaskFunc(func(ctx *Ctx) error {
			if err := ctx.Acquire(it); err != nil {
				return err
			}
			commitOrder = append(commitOrder, name)
			ctx.OnCommit(func() {
				actionOrder = append(actionOrder, name)
				held := it.Owner() != noOwner
				for _, o := range alsoHeld {
					held = held && o.Owner() != noOwner
				}
				heldInAction[name] = held
			})
			return nil
		})
	}
	// Taken from the tail: a and b share x and make up the first chunk.
	e.Add(task("d", z))
	e.Add(task("c", y))
	e.Add(task("b", x))
	e.Add(task("a", x, y)) // its action runs first in the window: c's lock must still be held too
	res := driveAll(context.Background(), e, control.Fixed{Procs: 8}, Options{Mode: ModeAsync})
	if res.Committed != 4 || res.Aborted != 5 || e.Pending() != 0 {
		t.Fatalf("committed %d aborted %d pending %d, want 4/5/0: b must lose to a until the first window closes",
			res.Committed, res.Aborted, e.Pending())
	}
	if first := res.Trajectory[0]; first.Launched != 8 || first.Committed != 3 || first.Aborted != 5 || first.R != 0.625 {
		t.Fatalf("first window %+v, want 8 launched, a, c and d committed, b aborted five times", first)
	}
	if !slices.Equal(commitOrder, []string{"a", "c", "d", "b"}) || !slices.Equal(actionOrder, commitOrder) {
		t.Fatalf("commit order %v, action order %v, want a c d b for both", commitOrder, actionOrder)
	}
	for _, name := range commitOrder {
		if !heldInAction[name] {
			t.Errorf("%s's items were released before its commit action ran", name)
		}
	}
	for _, it := range []*Item{x, y, z} {
		if it.Owner() != noOwner {
			t.Errorf("item %d still owned after the drive", it.Seq)
		}
	}
}

// TestRunAsyncAllocationsIndependentOfLength: workers run chunks on
// buffers they own and fold them into buffers the engine owns, so a
// drive of ten times the commits allocates what the short one does (the
// goroutines, the buffers' growth) — nothing per attempt, per commit or
// per window.
func TestRunAsyncAllocationsIndependentOfLength(t *testing.T) {
	const chains = 64
	allocs := func(repeats int) float64 {
		return testing.AllocsPerRun(3, func() {
			e, _, total := buildStableFixture(graph.Grid2D(8, 8), repeats, 2, 7)
			Drive(context.Background(), e, testHybrid(0.25), Options{Mode: ModeAsync, OnRound: func(Sample) {}})
			e.Close()
			if total.Load() != int64(chains*repeats) {
				t.Fatalf("committed %d chain steps, want %d", total.Load(), chains*repeats)
			}
		})
	}
	short, long := allocs(20), allocs(200)
	t.Logf("allocations: %v for %d commits, %v for %d", short, chains*20, long, chains*200)
	if long > short+64 {
		t.Fatalf("%v allocations for %d commits, %v for %d: the drive allocates per commit", long, chains*200, short, chains*20)
	}
}
