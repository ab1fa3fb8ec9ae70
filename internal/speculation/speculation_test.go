package speculation

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

func TestSingleTaskCommits(t *testing.T) {
	e := NewExecutor(nil)
	ran := false
	e.Add(TaskFunc(func(ctx *Ctx) error { ran = true; return nil }))
	st := e.Round(4)
	if !ran {
		t.Fatal("task did not run")
	}
	if st.Launched != 1 || st.Committed != 1 || st.Aborted != 0 {
		t.Fatalf("stats %+v", st)
	}
	if e.Pending() != 0 {
		t.Fatal("committed task still pending")
	}
}

func TestConflictingTasksExactlyOneCommits(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		e := NewExecutor(nil)
		it := NewItem(0)
		var commits atomic.Int32
		mk := func() Task {
			return TaskFunc(func(ctx *Ctx) error {
				if err := ctx.Acquire(it); err != nil {
					return err
				}
				commits.Add(1)
				return nil
			})
		}
		e.Add(mk())
		e.Add(mk())
		st := e.Round(2)
		if st.Committed != 1 || st.Aborted != 1 {
			t.Fatalf("trial %d: stats %+v", trial, st)
		}
		if commits.Load() != 1 {
			t.Fatalf("trial %d: %d tasks passed the lock", trial, commits.Load())
		}
		if e.Pending() != 1 {
			t.Fatalf("trial %d: aborted task not requeued", trial)
		}
		// Retry succeeds: the lock was released at round end.
		st = e.Round(2)
		if st.Committed != 1 {
			t.Fatalf("trial %d: retry failed %+v", trial, st)
		}
	}
}

func TestUndoLogRunsInReverseOnAbort(t *testing.T) {
	e := NewExecutor(nil)
	blocker := NewItem(1)
	var order []int
	// First task grabs the blocker and never conflicts.
	e.Add(TaskFunc(func(ctx *Ctx) error { return ctx.Acquire(blocker) }))
	e.Round(1) // now blocker is free again — so instead hold it manually:
	holder := &Ctx{id: 999}
	if err := holder.Acquire(blocker); err != nil {
		t.Fatal(err)
	}
	e.Add(TaskFunc(func(ctx *Ctx) error {
		ctx.LogUndo(func() { order = append(order, 1) })
		ctx.LogUndo(func() { order = append(order, 2) })
		return ctx.Acquire(blocker) // conflicts with the manual holder
	}))
	st := e.Round(1)
	if st.Aborted != 1 {
		t.Fatalf("stats %+v", st)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("undo order %v, want [2 1]", order)
	}
	holder.release()
}

func TestUndoNotRunOnCommit(t *testing.T) {
	e := NewExecutor(nil)
	undone := false
	e.Add(TaskFunc(func(ctx *Ctx) error {
		ctx.LogUndo(func() { undone = true })
		return nil
	}))
	e.Round(1)
	if undone {
		t.Fatal("undo log ran for a committed task")
	}
}

func TestSpawnOnCommitOnly(t *testing.T) {
	e := NewExecutor(nil)
	blocker := NewItem(2)
	holder := &Ctx{id: 999}
	if err := holder.Acquire(blocker); err != nil {
		t.Fatal(err)
	}
	e.Add(TaskFunc(func(ctx *Ctx) error {
		ctx.Spawn(TaskFunc(func(*Ctx) error { return nil }))
		return ctx.Acquire(blocker) // abort: spawn must be discarded
	}))
	st := e.Round(1)
	if st.Spawned != 0 {
		t.Fatalf("aborted task's spawn leaked: %+v", st)
	}
	if e.Pending() != 1 { // only the retry of the aborted task
		t.Fatalf("pending = %d", e.Pending())
	}
	holder.release()
	// The retried task now commits, and its Spawn (re-registered during
	// the retry execution) takes effect exactly once.
	st = e.Round(1)
	if st.Committed != 1 || st.Spawned != 1 {
		t.Fatalf("retry round: %+v", st)
	}
	e.Add(TaskFunc(func(ctx *Ctx) error {
		ctx.Spawn(TaskFunc(func(*Ctx) error { return nil }))
		ctx.Spawn(TaskFunc(func(*Ctx) error { return nil }))
		return nil
	}))
	st = e.Round(10) // runs the double-spawner plus the earlier no-op spawn
	if st.Spawned != 2 {
		t.Fatalf("committed spawns = %d, want 2", st.Spawned)
	}
}

func TestOnCommitActionsRunSeriallyAfterRound(t *testing.T) {
	e := NewExecutor(nil)
	counter := 0 // mutated without locks: safe only if actions are serial
	const n = 50
	for i := 0; i < n; i++ {
		e.Add(TaskFunc(func(ctx *Ctx) error {
			ctx.OnCommit(func() { counter++ })
			return nil
		}))
	}
	st := e.Round(n)
	if st.Committed != n {
		t.Fatalf("stats %+v", st)
	}
	if counter != n {
		t.Fatalf("commit actions ran %d times, want %d", counter, n)
	}
}

func TestOnCommitSkippedOnAbort(t *testing.T) {
	e := NewExecutor(nil)
	blocker := NewItem(3)
	holder := &Ctx{id: 999}
	if err := holder.Acquire(blocker); err != nil {
		t.Fatal(err)
	}
	ran := false
	e.Add(TaskFunc(func(ctx *Ctx) error {
		ctx.OnCommit(func() { ran = true })
		return ctx.Acquire(blocker)
	}))
	e.Round(1)
	if ran {
		t.Fatal("commit action ran for aborted task")
	}
	holder.release()
}

func TestReacquireHeldItemSucceeds(t *testing.T) {
	e := NewExecutor(nil)
	it := NewItem(4)
	e.Add(TaskFunc(func(ctx *Ctx) error {
		if err := ctx.Acquire(it); err != nil {
			return err
		}
		if !ctx.Holds(it) {
			t.Error("Holds is false after acquire")
		}
		return ctx.Acquire(it) // idempotent
	}))
	st := e.Round(1)
	if st.Committed != 1 {
		t.Fatalf("stats %+v", st)
	}
	if it.Owner() != noOwner {
		t.Fatal("lock not released after round")
	}
}

func TestNonConflictErrorIsFailureNotCrash(t *testing.T) {
	e := NewExecutor(nil)
	e.Add(TaskFunc(func(ctx *Ctx) error { return errors.New("operator bug") }))
	st := e.Round(1)
	if st.Failed != 1 || st.Aborted != 0 || st.Committed != 0 {
		t.Fatalf("stats %+v, want one failure", st)
	}
	// The failed task is requeued (budget permitting), not dropped.
	if e.Pending() != 1 {
		t.Fatalf("pending %d after first failure, want 1 (requeued)", e.Pending())
	}
	// Exhaust the default budget: the task must end up quarantined.
	for i := 0; i < DefaultTaskRetries; i++ {
		e.Round(1)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after budget exhausted, want 0", e.Pending())
	}
	if got := e.TotalPoisoned(); got != 1 {
		t.Fatalf("TotalPoisoned = %d, want 1", got)
	}
	recs := e.PoisonedTasks()
	if len(recs) != 1 || recs[0].Attempts != DefaultTaskRetries+1 {
		t.Fatalf("poison records %+v", recs)
	}
}

func TestRoundOnEmptyExecutor(t *testing.T) {
	e := NewExecutor(nil)
	st := e.Round(8)
	if st.Launched != 0 || st.ConflictRatio() != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestNegativeRoundPanics(t *testing.T) {
	e := NewExecutor(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Round(-1)
}

func TestMaxParallelBoundsConcurrency(t *testing.T) {
	e := NewExecutor(nil)
	e.MaxParallel = 3
	var cur, peak atomic.Int32
	for i := 0; i < 30; i++ {
		e.Add(TaskFunc(func(ctx *Ctx) error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			// Busy-wait a little so overlaps are observable.
			for j := 0; j < 1000; j++ {
				_ = j
			}
			cur.Add(-1)
			return nil
		}))
	}
	e.Round(30)
	if peak.Load() > 3 {
		t.Fatalf("peak concurrency %d exceeds MaxParallel=3", peak.Load())
	}
}

func TestChainedConflictSemantics(t *testing.T) {
	// Items a-b shared by tasks 1-2 and 2-3 respectively: a "path" of
	// conflicts. Over repeated trials, whenever task 2 aborts, both 1
	// and 3 can commit in the same round (aborted tasks release locks).
	saw13 := false
	for trial := 0; trial < 200 && !saw13; trial++ {
		e := NewExecutor(nil)
		a, b := NewItem(10), NewItem(11)
		var c1, c2, c3 atomic.Bool
		e.Add(TaskFunc(func(ctx *Ctx) error { // task 1: locks a
			if err := ctx.Acquire(a); err != nil {
				return err
			}
			c1.Store(true)
			return nil
		}))
		e.Add(TaskFunc(func(ctx *Ctx) error { // task 2: locks a then b
			if err := ctx.Acquire(a); err != nil {
				return err
			}
			if err := ctx.Acquire(b); err != nil {
				return err
			}
			c2.Store(true)
			return nil
		}))
		e.Add(TaskFunc(func(ctx *Ctx) error { // task 3: locks b
			if err := ctx.Acquire(b); err != nil {
				return err
			}
			c3.Store(true)
			return nil
		}))
		st := e.Round(3)
		if st.Committed+st.Aborted != 3 {
			t.Fatalf("partition broken: %+v", st)
		}
		if c1.Load() && c3.Load() && !c2.Load() {
			saw13 = true
		}
	}
	if !saw13 {
		t.Error("never observed tasks 1 and 3 committing around aborted task 2")
	}
}

func TestTotalsAccumulate(t *testing.T) {
	r := rng.New(1)
	e := NewExecutor(func(n int) int { return r.Intn(n) })
	it := NewItem(0)
	for i := 0; i < 10; i++ {
		e.Add(TaskFunc(func(ctx *Ctx) error { return ctx.Acquire(it) }))
	}
	rounds := 0
	for e.Pending() > 0 {
		e.Round(4)
		rounds++
		if rounds > 100 {
			t.Fatal("did not drain")
		}
	}
	if e.TotalCommitted() != 10 {
		t.Fatalf("TotalCommitted = %d", e.TotalCommitted())
	}
	if e.TotalLaunched() != e.TotalCommitted()+e.TotalAborted() {
		t.Fatal("counter identity broken")
	}
	if e.OverallConflictRatio() <= 0 {
		t.Fatal("all tasks share one item at m=4: expected conflicts")
	}
}

// Progress guarantee: k mutually conflicting tasks launched together
// drain in exactly k rounds at any m >= k — one commit per round, no
// livelock, no starvation.
func TestMutualConflictDrainsLinearly(t *testing.T) {
	const k = 12
	e := NewExecutor(nil)
	it := NewItem(0)
	for i := 0; i < k; i++ {
		e.Add(TaskFunc(func(ctx *Ctx) error { return ctx.Acquire(it) }))
	}
	rounds := 0
	for e.Pending() > 0 {
		st := e.Round(k)
		rounds++
		if st.Committed != 1 {
			t.Fatalf("round %d committed %d, want exactly 1", rounds, st.Committed)
		}
		if rounds > k {
			t.Fatal("livelock: more rounds than tasks")
		}
	}
	if rounds != k {
		t.Fatalf("drained in %d rounds, want %d", rounds, k)
	}
}

// A lost race is the expected outcome of speculation, so the abort path
// must not allocate; the error still unwraps to ErrConflict and names
// the item, holder and requester when somebody formats it.
func TestConflictErrorAllocatesNothing(t *testing.T) {
	it := NewItem(42)
	holder := &Ctx{id: 7}
	if err := holder.Acquire(it); err != nil {
		t.Fatal(err)
	}
	loser := &Ctx{id: 9}
	var err error
	if allocs := testing.AllocsPerRun(100, func() { err = loser.Acquire(it) }); allocs != 0 {
		t.Fatalf("a conflict abort allocates %v times", allocs)
	}
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("%v does not unwrap to ErrConflict", err)
	}
	if wrapped := fmt.Errorf("operator: %w", err); !errors.Is(wrapped, ErrConflict) {
		t.Fatalf("%v does not unwrap to ErrConflict once wrapped", wrapped)
	}
	want := "speculation: conflict detected: item 42 held by task 7 (requester 9)"
	if err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}
}
