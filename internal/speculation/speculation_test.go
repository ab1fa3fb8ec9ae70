package speculation

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
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

// blockerTask acquires it and commits; added after a task that acquires
// it too, it runs first in a nil-pick round (the tail is taken first) and
// makes that task lose the walk.
func blockerTask(it *Item) Task { return TaskFunc(func(ctx *Ctx) error { return ctx.Acquire(it) }) }

func TestConflictingTasksExactlyOneCommits(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		e := NewExecutor(nil)
		e.MaxParallel = 2
		it := NewItem(0)
		var commits atomic.Int32
		mk := func() Task {
			return TaskFunc(func(ctx *Ctx) error {
				if err := ctx.Acquire(it); err != nil {
					return err
				}
				ctx.OnCommit(func() { commits.Add(1) })
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
			t.Fatalf("trial %d: %d commit actions ran", trial, commits.Load())
		}
		if e.Pending() != 1 {
			t.Fatalf("trial %d: aborted task not requeued", trial)
		}
		// Retry succeeds: the item's claim lasted one round.
		st = e.Round(2)
		if st.Committed != 1 {
			t.Fatalf("trial %d: retry failed %+v", trial, st)
		}
	}
}

func TestSpawnOnCommitOnly(t *testing.T) {
	e := NewExecutor(nil)
	blocker := NewItem(2)
	e.Add(TaskFunc(func(ctx *Ctx) error {
		ctx.Spawn(TaskFunc(func(*Ctx) error { return nil }))
		return ctx.Acquire(blocker) // abort: spawn must be discarded
	}))
	e.Add(blockerTask(blocker))
	st := e.Round(2)
	if st.Committed != 1 || st.Spawned != 0 {
		t.Fatalf("aborted task's spawn leaked: %+v", st)
	}
	if e.Pending() != 1 { // only the retry of the aborted task
		t.Fatalf("pending = %d", e.Pending())
	}
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
	ran := false
	e.Add(TaskFunc(func(ctx *Ctx) error {
		ctx.OnCommit(func() { ran = true })
		return ctx.Acquire(blocker)
	}))
	e.Add(blockerTask(blocker))
	if st := e.Round(2); st.Aborted != 1 {
		t.Fatalf("stats %+v", st)
	}
	if ran {
		t.Fatal("commit action ran for aborted task")
	}
}

func TestReacquireHeldItemSucceeds(t *testing.T) {
	e := NewExecutor(nil)
	it := NewItem(4)
	e.Add(TaskFunc(func(ctx *Ctx) error {
		if err := ctx.Acquire(it); err != nil {
			return err
		}
		return ctx.Acquire(it) // a task never conflicts with itself
	}))
	st := e.Round(1)
	if st.Committed != 1 {
		t.Fatalf("stats %+v", st)
	}
	if it.Owner() != noOwner {
		t.Fatal("a round attempt locked an item")
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
	// conflicts. The order decides, not the schedule: with task 2 first
	// it alone commits; with task 1 first, 1 and 3 both commit around the
	// aborted task 2 (a loser claims nothing).
	for _, tc := range []struct {
		order []int // batch order: the tail of the work-set runs first
		want  [3]bool
	}{
		{[]int{2, 1, 3}, [3]bool{false, true, false}},
		{[]int{1, 2, 3}, [3]bool{true, false, true}},
		{[]int{3, 2, 1}, [3]bool{true, false, true}},
	} {
		for trial := 0; trial < 20; trial++ {
			e := NewExecutor(nil)
			e.MaxParallel = 3
			a, b := NewItem(10), NewItem(11)
			var committed [3]atomic.Bool
			items := [3][]*Item{{a}, {a, b}, {b}}
			for k := len(tc.order) - 1; k >= 0; k-- {
				task := tc.order[k] - 1
				e.Add(TaskFunc(func(ctx *Ctx) error {
					if err := ctx.AcquireAll(items[task]...); err != nil {
						return err
					}
					ctx.OnCommit(func() { committed[task].Store(true) })
					return nil
				}))
			}
			st := e.Round(3)
			if st.Committed+st.Aborted != 3 {
				t.Fatalf("partition broken: %+v", st)
			}
			for k := range committed {
				if committed[k].Load() != tc.want[k] {
					t.Fatalf("order %v: task %d committed=%v, want %v", tc.order, k+1, committed[k].Load(), tc.want[k])
				}
			}
		}
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

// A lost async race is the expected outcome of speculation, so the abort
// path must not allocate; the error still unwraps to ErrConflict and
// names the item, holder and requester when somebody formats it.
func TestConflictErrorAllocatesNothing(t *testing.T) {
	it := NewItem(42)
	holder := &Ctx{locks: true, id: 7}
	if err := holder.Acquire(it); err != nil {
		t.Fatal(err)
	}
	loser := &Ctx{locks: true, id: 9}
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

// TestRoundCommitsGreedyMIS holds the round rule at every participant
// count: a round commits exactly the greedy maximal independent set of
// its batch order on the conflict graph the batch induces — the paper's
// "a task aborts iff an earlier task of the round committed and is its
// neighbour" — not whichever acquisition happened to land first. Tasks
// are the nodes of random CC graphs, acquiring GraphFootprints, and spin
// before they acquire so that chunks on different participants overlap.
// With pick == nil a round takes the work-set's tail, last in first, and
// requeues its losers in batch order, so the test knows every batch.
func TestRoundCommitsGreedyMIS(t *testing.T) {
	const n, degree, m = 240, 6.0, 48
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("MaxParallel=%d", par), func(t *testing.T) {
			_, joins0 := HelperCounts()
			for seed := uint64(1); seed <= 3; seed++ {
				r := rng.New(seed)
				g := graph.RandomWithAvgDegree(r, n, degree)
				fps := GraphFootprints(g)
				e := NewExecutor(nil)
				e.MaxParallel = par
				var committed []int // commit actions run serially
				pending := r.Perm(n)
				for _, v := range pending {
					e.Add(TaskFunc(func(ctx *Ctx) error {
						for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
						}
						if err := ctx.AcquireAll(fps[v]...); err != nil {
							return err
						}
						ctx.OnCommit(func() { committed = append(committed, v) })
						return nil
					}))
				}
				for round := 0; len(pending) > 0; round++ {
					k := min(m, len(pending))
					batch := slices.Clone(pending[len(pending)-k:])
					slices.Reverse(batch)
					want, losers := graph.GreedyMIS(g, batch)
					committed = committed[:0]
					st := e.Round(m)
					if !slices.Equal(committed, want) {
						t.Fatalf("seed %d round %d: committed %v, want the greedy MIS %v of %v",
							seed, round, committed, want, batch)
					}
					if st.Committed != len(want) || st.Aborted != len(losers) {
						t.Fatalf("seed %d round %d: stats %+v, want %d commits and %d aborts",
							seed, round, st, len(want), len(losers))
					}
					pending = append(pending[:len(pending)-k], losers...)
				}
				e.Close()
			}
			if _, joins := HelperCounts(); par > 1 && joins == joins0 {
				t.Fatal("no helper joined a round: the rounds ran on one participant")
			}
		})
	}
}
