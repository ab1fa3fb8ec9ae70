package speculation

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestPanicIsolationRollsBack proves a panicking task is a failure, not
// a crash: its spawns and commit actions are dropped, it claims nothing,
// and a neighbor after it in the same round commits.
func TestPanicIsolationRollsBack(t *testing.T) {
	for _, par := range []int{0, 4} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			e := NewExecutor(nil)
			e.MaxParallel = par
			defer e.Close()

			it := NewItem(1)
			var ran atomic.Int64
			clean := TaskFunc(func(ctx *Ctx) error { return ctx.Acquire(it) })
			e.Add(clean) // runs second: the tail of the work-set runs first
			e.Add(TaskFunc(func(ctx *Ctx) error {
				if err := ctx.Acquire(it); err != nil {
					return err
				}
				ctx.OnCommit(func() { ran.Add(1) })
				ctx.Spawn(clean)
				panic("operator bug")
			}))
			st := e.Round(2)
			if st.Failed != 1 || st.Committed != 1 || st.Spawned != 0 {
				t.Fatalf("stats %+v, want Failed=1 Committed=1 Spawned=0", st)
			}
			if ran.Load() != 0 {
				t.Fatal("a failed attempt's commit action ran")
			}
			// The panicker alone is left; it runs out of budget.
			for rounds := 0; e.Pending() > 0 && rounds < 100; rounds++ {
				if st := e.Round(2); st.Committed != 0 {
					t.Fatalf("the panicker committed: %+v", st)
				}
			}
			if e.TotalPoisoned() != 1 {
				t.Fatalf("TotalPoisoned = %d, want 1", e.TotalPoisoned())
			}
		})
	}
}

// TestRetryBudgetRecovery: a task that fails transiently (fewer times
// than the budget) must eventually commit, and its failure record must
// be forgotten (no poisoning).
func TestRetryBudgetRecovery(t *testing.T) {
	e := NewExecutor(nil)
	e.TaskRetries = 3
	var attempts atomic.Int64
	e.Add(TaskFunc(func(ctx *Ctx) error {
		if attempts.Add(1) <= 2 {
			return errors.New("transient")
		}
		return nil
	}))
	for e.Pending() > 0 {
		e.Round(1)
	}
	if e.TotalCommitted() != 1 || e.TotalPoisoned() != 0 {
		t.Fatalf("committed=%d poisoned=%d, want 1/0",
			e.TotalCommitted(), e.TotalPoisoned())
	}
	if got := e.Snapshot().Failed; got != 2 {
		t.Fatalf("Snapshot().Failed = %d, want 2", got)
	}
	if len(e.failures) != 0 {
		t.Fatalf("failure map not cleaned after recovery: %v", e.failures)
	}
}

// TestNoRetriesPoisonsImmediately: TaskRetries < 0 disables retries.
func TestNoRetriesPoisonsImmediately(t *testing.T) {
	e := NewExecutor(nil)
	e.TaskRetries = -1
	e.Add(TaskFunc(func(ctx *Ctx) error { panic("boom") }))
	st := e.Round(1)
	if st.Failed != 1 || st.Poisoned != 1 {
		t.Fatalf("stats %+v, want Failed=1 Poisoned=1", st)
	}
	if e.Pending() != 0 {
		t.Fatalf("poisoned task still pending")
	}
	var pe *PanicError
	recs := e.PoisonedTasks()
	if len(recs) != 1 {
		t.Fatalf("records %+v", recs)
	}
	// The record's message carries the panic value.
	if want := "boom"; !contains(recs[0].Err, want) {
		t.Fatalf("record err %q missing %q", recs[0].Err, want)
	}
	_ = pe
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFailuresExcludedFromConflictRatio: the controller signal must not
// be polluted by injected failures.
func TestFailuresExcludedFromConflictRatio(t *testing.T) {
	st := RoundStats{Launched: 10, Committed: 5, Aborted: 2, Failed: 3}
	if got := st.ConflictRatio(); got != 0.2 {
		t.Fatalf("ConflictRatio = %v, want 0.2 (failures excluded)", got)
	}
	// An ordered round's premature executions are part of Aborted.
	ost := RoundStats{Launched: 10, Committed: 5, Aborted: 2, Premature: 1, Failed: 3}
	if got := ost.ConflictRatio(); got != 0.2 {
		t.Fatalf("ordered ConflictRatio = %v, want 0.2", got)
	}
}

// TestSnapshotBalancesWithFailures: Launched = Committed + Aborted +
// Failed, and Poisoned counts the quarantine.
func TestSnapshotBalancesWithFailures(t *testing.T) {
	e := NewExecutor(nil)
	e.TaskRetries = 1
	for i := 0; i < 8; i++ {
		e.Add(TaskFunc(func(ctx *Ctx) error { return nil }))
	}
	e.Add(TaskFunc(func(ctx *Ctx) error { return errors.New("always fails") }))
	for e.Pending() > 0 {
		e.Round(4)
	}
	s := e.Snapshot()
	if s.Launched != s.Committed+s.Aborted+s.Failed {
		t.Fatalf("unbalanced snapshot %+v", s)
	}
	if s.Poisoned != 1 || s.Failed != 2 { // 1 initial failure + 1 retry
		t.Fatalf("snapshot %+v, want Poisoned=1 Failed=2", s)
	}
}

// orderedFailTask is an ordered task failing its first n attempts.
type orderedFailTask struct {
	key      Key
	failures int
	attempts atomic.Int64
	mode     string // "panic" or "error"
	claims   []*Item
}

func (t *orderedFailTask) Key() Key { return t.key }
func (t *orderedFailTask) Run(ctx *OrderedCtx) error {
	ctx.Claim(t.claims...)
	if t.attempts.Add(1) <= int64(t.failures) {
		if t.mode == "panic" {
			panic(fmt.Sprintf("ordered boom at %v", t.key))
		}
		return errors.New("ordered transient")
	}
	return nil
}

// TestOrderedFailureFlow: the ordered executor shares the unordered
// taxonomy — panics retry on budget, commit prefix stays safe, and
// exhausted tasks are quarantined instead of panicking the executor.
func TestOrderedFailureFlow(t *testing.T) {
	e := NewOrderedExecutor()
	e.TaskRetries = 2
	defer e.Close()

	it := NewItem(7)
	flaky := &orderedFailTask{key: Key{Time: 1}, failures: 2, mode: "panic", claims: []*Item{it}}
	clean := &orderedFailTask{key: Key{Time: 2}}
	e.Add(flaky)
	e.Add(clean)

	// Round 1: flaky fails, prefix stops → clean is premature-requeued.
	st := e.Round(2)
	if st.Failed != 1 || st.Committed != 0 || st.Premature != 1 {
		t.Fatalf("round 1 stats %+v", st)
	}
	for e.Pending() > 0 {
		e.Round(2)
	}
	if e.TotalCommitted() != 2 {
		t.Fatalf("committed %d, want 2 (flaky recovered)", e.TotalCommitted())
	}
	if e.TotalPoisoned() != 0 {
		t.Fatalf("poisoned %d, want 0", e.TotalPoisoned())
	}
	if got := e.Snapshot().Failed; got != 2 {
		t.Fatalf("failed %d, want 2", got)
	}
}

// TestOrderedPoisoning: a task that always fails exhausts the budget
// and is dropped from the heap, letting the rest of the workload drain.
func TestOrderedPoisoning(t *testing.T) {
	e := NewOrderedExecutor()
	e.TaskRetries = 1
	defer e.Close()

	bad := &orderedFailTask{key: Key{Time: 1}, failures: 1 << 30, mode: "error"}
	good := &orderedFailTask{key: Key{Time: 2}}
	e.Add(bad)
	e.Add(good)
	for i := 0; i < 20 && e.Pending() > 0; i++ {
		e.Round(2)
	}
	if e.Pending() != 0 {
		t.Fatalf("heap not drained: %d pending", e.Pending())
	}
	if e.TotalCommitted() != 1 || e.TotalPoisoned() != 1 {
		t.Fatalf("committed=%d poisoned=%d, want 1/1",
			e.TotalCommitted(), e.TotalPoisoned())
	}
	recs := e.PoisonedTasks()
	if len(recs) != 1 || recs[0].Handle != -1 || recs[0].Attempts != 2 {
		t.Fatalf("records %+v", recs)
	}
}

// TestWrapTaskInterceptsAddsAndSpawns: the injection hook sees every
// task entering the work-set, including commit-time spawns.
func TestWrapTaskInterceptsAddsAndSpawns(t *testing.T) {
	e := NewExecutor(nil)
	var wrapped atomic.Int64
	e.WrapTask = func(t Task) Task {
		wrapped.Add(1)
		return t
	}
	e.Add(TaskFunc(func(ctx *Ctx) error {
		ctx.Spawn(TaskFunc(func(*Ctx) error { return nil }))
		return nil
	}))
	for e.Pending() > 0 {
		e.Round(1)
	}
	if wrapped.Load() != 2 {
		t.Fatalf("wrapper saw %d tasks, want 2 (add + spawn)", wrapped.Load())
	}
}
