package speculation

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// This file implements the *ordered* speculative executor — the paper's
// §5 future work: "it would be extremely valuable to obtain similar
// results for the more general and difficult case of ordered algorithms
// (e.g., discrete event simulation)". Tasks carry priorities (e.g.,
// event timestamps) and must commit in priority order.
//
// Execution is optimistic and round-structured, so the same
// processor-allocation controllers apply:
//
//  1. Phase 1 (parallel): the m earliest pending tasks run
//     concurrently. Ordered tasks are *cautious by construction*: they
//     read shared state, Claim the items they touch, and defer every
//     mutation to OnCommit. Nothing aborts in this phase.
//  2. Phase 2 (serial, in priority order): a task commits iff no
//     earlier-priority task of the round claimed one of its items
//     (conflict) and no already-committed task of the round spawned
//     work that precedes it (premature execution — the Time-Warp
//     causality hazard). Losers are requeued; their phase-1 work is the
//     wasted speculation the conflict ratio measures.

// Key is a total-order priority: primary the float Time, ties broken by
// the deterministic Tie tag. Lower keys commit first.
type Key struct {
	Time float64
	Tie  uint64
}

// Less orders keys lexicographically.
func (k Key) Less(o Key) bool {
	if k.Time != o.Time {
		return k.Time < o.Time
	}
	return k.Tie < o.Tie
}

// MaxKey is larger than every real key.
var MaxKey = Key{Time: math.Inf(1), Tie: math.MaxUint64}

// OrderedTask is a prioritized unit of speculative work.
type OrderedTask interface {
	// Key returns the task's commit priority. It must be constant for
	// the lifetime of the task.
	Key() Key
	// Run executes the read/claim phase. It must not mutate shared
	// state: reads are unsynchronized against other phase-1 tasks, so
	// all writes belong in ctx.OnCommit. A non-nil error (or a panic)
	// is a task failure: the attempt is discarded and the task is
	// retried up to the executor's TaskRetries budget, then poisoned —
	// the same failure taxonomy as the unordered executor.
	Run(ctx *OrderedCtx) error
}

// retryTask wraps a failed ordered task with its failure count so the
// budget survives requeueing through the heap. It delegates Key and Run
// to the wrapped task, so phase-1 execution and commit ordering are
// unchanged.
type retryTask struct {
	OrderedTask
	fails int
}

// OrderedCtx is the phase-1 context handed to ordered tasks.
type OrderedCtx struct {
	claims   []*Item
	spawned  []OrderedTask
	spawnFns []func() []OrderedTask
	onCommit []func()
}

// Claim registers intent to touch it; two same-round tasks claiming the
// same item conflict, and the later-priority one aborts.
func (c *OrderedCtx) Claim(items ...*Item) {
	c.claims = append(c.claims, items...)
}

// Spawn schedules t if the current task commits. The spawn's key must
// be strictly greater than the spawning task's key (causality); this is
// checked at commit time.
func (c *OrderedCtx) Spawn(t OrderedTask) { c.spawned = append(c.spawned, t) }

// SpawnAtCommit registers a function producing follow-up tasks at
// commit time — for workloads (like discrete-event simulation) where
// the spawned work depends on state that only the serial commit phase
// may read. The returned tasks obey the same causality rule as Spawn.
func (c *OrderedCtx) SpawnAtCommit(fn func() []OrderedTask) {
	c.spawnFns = append(c.spawnFns, fn)
}

// OnCommit registers a mutation to apply serially if the task commits.
func (c *OrderedCtx) OnCommit(fn func()) { c.onCommit = append(c.onCommit, fn) }

// orderedScratch holds an ordered round's working state, reused so a
// steady-state round allocates nothing; Round drops every task it took.
type orderedScratch struct {
	batch   []keyed
	ctxs    []OrderedCtx // [:len(batch)] used per round; tasks get &ctxs[i]
	errs    []error
	requeue []keyed
	run     func(i int) // phase 1's body, bound once so dispatching a round allocates nothing
}

// keyed is a task and its key, read once as the task enters the heap: Key
// is constant for a task's lifetime, so nothing after that calls it.
type keyed struct {
	key  Key
	task OrderedTask
}

// taskHeap is a binary min-heap by key that sifts exactly as
// container/heap does, so even equal keys pop in the same order.
type taskHeap []keyed

func (h *taskHeap) push(x keyed) {
	s := append(*h, x)
	j := len(s) - 1
	for ; j > 0 && x.key.Less(s[(j-1)/2].key); j = (j - 1) / 2 {
		s[j] = s[(j-1)/2]
	}
	s[j] = x
	*h = s
}

func (h *taskHeap) pop() keyed {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && s[c+1].key.Less(s[c].key) {
			c++
		}
		if !s[c].key.Less(last.key) {
			break
		}
		s[i], i = s[c], c
	}
	s[i], s[n] = last, keyed{} // n == 0: both are slot 0, which leaves the heap
	*h = s[:n]
	return top
}

// OrderedExecutor runs prioritized tasks optimistically with in-order
// commits. Phase 1 runs on the same help-first pool as Executor's rounds.
type OrderedExecutor struct {
	mu      sync.Mutex
	pending taskHeap

	// MaxParallel bounds phase 1 like Executor.MaxParallel bounds a round:
	// MaxParallel participants, the caller included (0 or less = GOMAXPROCS).
	MaxParallel int

	// TaskRetries is the per-task failure budget, with the same
	// semantics as Executor.TaskRetries (0 = DefaultTaskRetries,
	// negative = no retries).
	TaskRetries int

	dispatchRecord

	// accounting holds the shared counters and quarantine; the ordered
	// executor folds conflicts + premature into its Aborted total so
	// the promoted accessors (TotalAborted, OverallConflictRatio, …)
	// report the same wasted-work notion as the round stats.
	accounting

	totalConflicts atomic.Int64
	totalPremature atomic.Int64
	scratch        orderedScratch // round-local (Round is single-caller)
}

// NewOrderedExecutor returns an empty ordered executor.
func NewOrderedExecutor() *OrderedExecutor {
	return &OrderedExecutor{}
}

// Close does nothing: the ordered executor holds no pooled resource. It
// makes the ordered executor a workload.Stepper like Executor.
func (e *OrderedExecutor) Close() {}

// Snapshot returns the ordered executor's pending count and cumulative
// counters in one race-safe call. Aborted counts both failure modes
// (conflicts + premature executions), matching OverallConflictRatio.
func (e *OrderedExecutor) Snapshot() Snapshot {
	return e.accounting.snapshot(e.Pending())
}

// TotalConflicts returns the cumulative count of same-round item
// conflicts.
func (e *OrderedExecutor) TotalConflicts() int64 { return e.totalConflicts.Load() }

// TotalPremature returns the cumulative count of premature executions
// (tasks that ran ahead of newly spawned earlier work).
func (e *OrderedExecutor) TotalPremature() int64 { return e.totalPremature.Load() }

// retryBudget resolves TaskRetries exactly like Executor.retryBudget.
func (e *OrderedExecutor) retryBudget() int { return resolveRetryBudget(e.TaskRetries) }

// Add inserts a task.
func (e *OrderedExecutor) Add(t OrderedTask) {
	e.mu.Lock()
	e.pending.push(keyed{t.Key(), t})
	e.mu.Unlock()
}

// Pending returns the number of queued tasks.
func (e *OrderedExecutor) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// Round speculatively executes the m earliest pending tasks and commits
// the safe prefix in priority order. Aborted counts both ways an ordered
// execution is wasted — losing an item to an earlier task, and running
// ahead of newly spawned earlier work (Premature) — so ConflictRatio is
// the combined wasted-work ratio the controller consumes.
func (e *OrderedExecutor) Round(m int) RoundStats {
	if m < 0 {
		panic("speculation: negative ordered round size")
	}
	s := &e.scratch
	e.mu.Lock()
	for ; m > 0 && len(e.pending) > 0; m-- {
		s.batch = append(s.batch, e.pending.pop())
	}
	e.mu.Unlock()
	if len(s.batch) == 0 {
		return RoundStats{}
	}
	s.ctxs, s.errs = resized(s.ctxs, len(s.batch)), resized(s.errs, len(s.batch))
	if s.run == nil {
		s.run = func(i int) { s.errs[i] = runGuarded(s.batch[i].task, &s.ctxs[i]) }
	}

	// Phase 1: parallel speculative execution (read + claim only) on the
	// pool. Panics and errors are captured per attempt, not fatal: they
	// flow through the shared failure taxonomy in phase 2.
	e.dispatch(e.MaxParallel, len(s.batch), s.run, false)

	// Phase 2: serial commit walk in priority order. Heap pops yield
	// ascending keys, so the batch is sorted by construction.
	stats := RoundStats{Launched: len(s.batch)}
	budget := e.retryBudget()
	minSpawn := MaxKey
	stamp := stamps.Add(1) // the committed prefix's claims
	requeue := s.requeue
	stopped := false
	for i, b := range s.batch {
		ctx, t := &s.ctxs[i], b.task
		switch err := s.errs[i]; {
		case stopped:
			// A task before this one failed to commit. Its re-execution
			// may spawn events that precede this one, so chronological
			// safety forbids committing anything past the first failure:
			// the committed set must be a prefix of the batch.
			stats.Aborted++
			stats.Premature++
			requeue = append(requeue, b)
		case err != nil:
			// Failure: the phase-1 attempt is discarded (ordered tasks
			// are read-only in phase 1, so there is nothing to roll
			// back). A retried task may spawn earlier work, so the
			// commit prefix stops here, like a conflict.
			stats.Failed++
			rt, ok := t.(*retryTask)
			if !ok {
				rt = &retryTask{OrderedTask: t}
			}
			rt.fails++
			if rt.fails > budget {
				stats.Poisoned++
				e.quarantine(FailureRecord{
					Handle:   -1,
					Attempts: rt.fails,
					Err:      fmt.Sprintf("key=%+v: %v", b.key, err),
				})
			} else {
				requeue = append(requeue, keyed{b.key, rt})
			}
		case minSpawn.Less(b.key):
			// Earlier work was generated by a committed task: this
			// execution ran ahead of it and must be redone.
			stats.Aborted++
			stats.Premature++
			requeue = append(requeue, b)
		case !claim(ctx.claims, stamp):
			stats.Aborted++
			requeue = append(requeue, b)
		default:
			// Commit (claims booked): apply mutations, surface spawns.
			for _, fn := range ctx.onCommit {
				fn()
			}
			for _, fn := range ctx.spawnFns {
				ctx.spawned = append(ctx.spawned, fn()...)
			}
			for _, sp := range ctx.spawned {
				k := sp.Key()
				if !b.key.Less(k) {
					panic(fmt.Sprintf("speculation: spawn key %+v not after parent %+v", k, b.key))
				}
				if k.Less(minSpawn) {
					minSpawn = k
				}
				requeue = append(requeue, keyed{k, sp})
				stats.Spawned++
			}
			stats.Committed++
			continue
		}
		stopped = true
	}
	e.mu.Lock()
	for _, r := range requeue {
		e.pending.push(r)
	}
	e.mu.Unlock()
	for i := range s.batch {
		c := &s.ctxs[i]
		c.claims, c.spawned = scrubSlice(c.claims), scrubSlice(c.spawned)
		c.spawnFns, c.onCommit = scrubSlice(c.spawnFns), scrubSlice(c.onCommit)
	}
	clear(s.errs)
	s.batch, s.requeue = emptied(s.batch), emptied(requeue)
	e.totalConflicts.Add(int64(stats.Aborted - stats.Premature))
	e.totalPremature.Add(int64(stats.Premature))
	e.addTotals(stats)
	return stats
}
