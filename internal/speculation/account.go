package speculation

import (
	"sync"
	"sync/atomic"
)

// accounting is the commit/abort bookkeeping shared by the unordered
// executor (round and async paths) and the ordered executor. It owns
// the cumulative counters, the per-handle failure budget, and the
// poison quarantine, so the executors' hot paths all settle outcomes
// through one implementation.
//
// The counters are atomics: the executing path writes them while
// monitors read concurrently. The failure map is mutex-guarded because
// the async path settles outcomes from many worker goroutines; an
// atomic count of outstanding failure records keeps the healthy path
// (clearFailure on every commit) lock-free.
type accounting struct {
	totalLaunched  atomic.Int64
	totalCommitted atomic.Int64
	totalAborted   atomic.Int64
	totalFailed    atomic.Int64
	totalPoisoned  atomic.Int64

	failMu    sync.Mutex
	failCount atomic.Int64  // len(failures), readable without failMu
	failures  map[int64]int // failed-attempt counts by handle

	poisonMu sync.Mutex
	poisoned []FailureRecord
}

// resolveRetryBudget maps a TaskRetries setting to the effective
// failure budget: 0 selects DefaultTaskRetries, negative disables
// retries (first failure poisons).
func resolveRetryBudget(r int) int {
	switch {
	case r < 0:
		return 0
	case r == 0:
		return DefaultTaskRetries
	default:
		return r
	}
}

// addTotals folds one settled batch (a round, or an async worker's
// chunk) into the cumulative counters. Zero fields are skipped so
// single-outcome updates cost two atomic adds.
func (a *accounting) addTotals(st RoundStats) {
	add := func(total *atomic.Int64, n int) {
		if n != 0 {
			total.Add(int64(n))
		}
	}
	add(&a.totalLaunched, st.Launched)
	add(&a.totalCommitted, st.Committed)
	add(&a.totalAborted, st.Aborted)
	add(&a.totalFailed, st.Failed)
	add(&a.totalPoisoned, st.Poisoned)
}

// noteFailure charges one failed attempt against handle h's budget.
// When the budget is exhausted the task is quarantined (recorded with
// the given error text) and poisoned=true is returned; the caller must
// then drop the handle instead of requeueing it.
func (a *accounting) noteFailure(h int64, budget int, errMsg string) (attempts int, poisoned bool) {
	a.failMu.Lock()
	if a.failures == nil {
		a.failures = make(map[int64]int)
	}
	a.failures[h]++
	attempts = a.failures[h]
	if attempts > budget {
		delete(a.failures, h)
		a.failCount.Store(int64(len(a.failures)))
		a.failMu.Unlock()
		a.quarantine(FailureRecord{Handle: h, Attempts: attempts, Err: errMsg})
		return attempts, true
	}
	a.failCount.Store(int64(len(a.failures)))
	a.failMu.Unlock()
	return attempts, false
}

// clearFailure forgets handle h's failure record after a successful
// commit (a previously failed task recovered). The atomic count makes
// the common no-failures case a single load.
func (a *accounting) clearFailure(h int64) {
	if a.failCount.Load() == 0 {
		return
	}
	a.failMu.Lock()
	if _, ok := a.failures[h]; ok {
		delete(a.failures, h)
		a.failCount.Store(int64(len(a.failures)))
	}
	a.failMu.Unlock()
}

// quarantine appends one poisoned-task record.
func (a *accounting) quarantine(rec FailureRecord) {
	a.poisonMu.Lock()
	a.poisoned = append(a.poisoned, rec)
	a.poisonMu.Unlock()
}

// TotalLaunched returns the cumulative number of launched attempts.
func (a *accounting) TotalLaunched() int64 { return a.totalLaunched.Load() }

// TotalCommitted returns the cumulative number of committed tasks.
func (a *accounting) TotalCommitted() int64 { return a.totalCommitted.Load() }

// TotalAborted returns the cumulative number of aborted attempts (for
// the ordered executor: conflicts + premature executions).
func (a *accounting) TotalAborted() int64 { return a.totalAborted.Load() }

// TotalPoisoned returns the number of tasks quarantined after
// exhausting their retry budget.
func (a *accounting) TotalPoisoned() int64 { return a.totalPoisoned.Load() }

// PoisonedTasks returns a copy of the quarantine: one record per task
// that exhausted its failure budget, in poisoning order. Safe to call
// concurrently with execution.
func (a *accounting) PoisonedTasks() []FailureRecord {
	a.poisonMu.Lock()
	defer a.poisonMu.Unlock()
	return append([]FailureRecord(nil), a.poisoned...)
}

// OverallConflictRatio returns cumulative aborts/launches.
func (a *accounting) OverallConflictRatio() float64 {
	l := a.totalLaunched.Load()
	if l == 0 {
		return 0
	}
	return float64(a.totalAborted.Load()) / float64(l)
}

// snapshot assembles a Snapshot from the counters plus the executor's
// current pending count.
func (a *accounting) snapshot(pending int) Snapshot {
	return Snapshot{
		Pending:   pending,
		Launched:  a.totalLaunched.Load(),
		Committed: a.totalCommitted.Load(),
		Aborted:   a.totalAborted.Load(),
		Failed:    a.totalFailed.Load(),
		Poisoned:  a.totalPoisoned.Load(),
	}
}
