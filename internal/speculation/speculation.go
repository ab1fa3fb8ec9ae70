// Package speculation implements a Galois-style optimistic parallelization
// runtime (§1): tasks drawn from a work-set execute speculatively and
// concurrently on goroutines, naming the shared items they touch through
// Ctx.Acquire; a task that conflicts with an earlier winner aborts, its
// pending side effects (spawns, commit actions) are dropped, and it is
// retried in a later round.
//
// Execution is round-structured to mirror the paper's model: each round
// launches m tasks (m chosen by a processor-allocation controller), waits
// for all of them, and reports the measured conflict ratio r = aborts/m.
// The round rule is the model's (§2): a task aborts iff a task before it
// in the round's pick order committed and shares an item with it. A round
// therefore runs in two phases, as the ordered executor's does: every
// task of the batch runs and records the items it acquires (an Acquire
// never fails in a round), then one serial walk in batch order commits a
// task iff no earlier winner claimed one of its items (claim). The
// committed set is the greedy maximal independent set of the pick order
// on the round's conflict graph, whatever the participant count. A
// colored super-round is a sequence of such rounds, one per color class
// (colored.go).
//
// The paper assumes conflicting and non-conflicting tasks cost the same
// (§2, as in Delaunay mesh refinement); the runtime therefore treats an
// abort as a full processor-round of wasted work in its accounting.
//
// The executor itself is built for throughput: the work-set holds the
// tasks themselves (each entry is a task plus the handle its failure
// budget is keyed by), so a round is "pop m entries, run them, append
// the losers back" with no table in between; a round runs on its caller
// plus up to MaxParallel − 1 helpers borrowed from the process's one
// helper pool, claiming chunks of its index space off one atomic cursor
// (no hand-off: a small round usually runs on the caller alone, and
// helpers are woken only while they arrive in time to claim a chunk; an
// async drive is one dispatch on the same pool, and an executor owns no
// goroutine), and per-attempt contexts are recycled through a sync.Pool.
// A steady-state round allocates nothing, and neither does an async
// conflict abort: the error Acquire returns lives in the attempt's
// context.
package speculation

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrConflict is what Ctx.Acquire's error unwraps to when, in an async
// drive, the requested item is held by another in-flight task. Operator
// code must propagate that error (or wrap it) so the executor can requeue
// the task; a task that returns it in any mode is aborted.
var ErrConflict = errors.New("speculation: conflict detected")

// conflictError is the error an async Acquire returns on a lost race.
// Losing is the expected outcome of speculation, so the abort path
// allocates nothing: the value lives inside the aborting Ctx and the
// message is formatted only if somebody asks for it.
type conflictError struct {
	item, holder, requester int64
}

func (e *conflictError) Error() string {
	return fmt.Sprintf("%v: item %d held by task %d (requester %d)",
		ErrConflict, e.item, e.holder, e.requester)
}

func (e *conflictError) Unwrap() error { return ErrConflict }

// The failure taxonomy, shared by both executors: every attempt outcome
// is exactly one of
//
//	commit    — Run returned nil; side effects become visible.
//	abort     — an earlier winner of the round claimed one of the task's
//	            items, or Run returned ErrConflict (possibly wrapped); the
//	            task's spawns and commit actions are dropped and it is
//	            requeued unconditionally. Aborts are *expected* (the
//	            paper's premise) and never consume the retry budget.
//	failure   — Run panicked or returned any other error; the attempt is
//	            discarded the same way (an async attempt also releases
//	            its locks) and the task is retried until its budget is
//	            exhausted.
//	poisoned  — a failure with no budget left: the task is removed from
//	            the work-set and quarantined for inspection instead of
//	            crashing the process.

// DefaultTaskRetries is the failure budget used when TaskRetries is 0:
// a task may fail this many times before it is poisoned.
const DefaultTaskRetries = 3

// PanicError wraps a panic recovered from operator code so it flows
// through the normal failure path instead of killing the process.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("speculation: task panicked: %v", e.Value)
}

// FailureRecord describes a quarantined (poisoned) task.
type FailureRecord struct {
	// Handle is the unordered executor's task handle, or -1 for ordered
	// tasks (which have no stable handle).
	Handle int64
	// Attempts is the number of failed attempts the task consumed.
	Attempts int
	// Err is the last failure's message.
	Err string
}

// runGuarded executes one task attempt, of either executor, with panic
// isolation: a panic in operator code is converted into a *PanicError so
// the executor treats it as a task failure (retry budget) rather than a
// crash.
func runGuarded[C any, T interface{ Run(C) error }](t T, ctx C) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return t.Run(ctx)
}

const noOwner int64 = -1

// Item is an abstract location. Tasks must acquire an item before
// reading or writing the state it guards: two tasks of a round that
// acquire one item conflict, and only the earlier in pick order may
// commit. The zero value is not ready; use NewItem.
type Item struct {
	owner atomic.Int64 // the async attempt holding the item's lock, or noOwner
	// Seq is an optional caller-visible tag (e.g. graph node ID) for
	// diagnostics and conflict errors. Nothing tells items apart by it:
	// two distinct items may carry the same Seq.
	Seq int64
	// gen and head are the item's slot for the executor's serial passes,
	// stamped from stamps: gen is the walk that last booked the item for
	// a winner (claim) or the conflict-graph build that last chained it
	// (ConflictGraph.build), and head is the index of its latest holding
	// in that build. Only the drive goroutine of the one executor the
	// item belongs to touches them, between dispatches.
	gen  uint64
	head int32
}

// stamps numbers every walk and every conflict-graph build of every
// executor in the process, so an Item slot stamped by an earlier pass,
// or by another executor's, never reads as current.
var stamps atomic.Uint64

// claim books items under stamp for a winner of a walk and reports true,
// or reports false and books nothing when an earlier winner of the walk
// booked one of them: the one commit rule of both executors' walks.
func claim(items []*Item, stamp uint64) bool {
	for _, it := range items {
		if it.gen == stamp {
			return false
		}
	}
	for _, it := range items {
		it.gen = stamp
	}
	return true
}

// NewItem returns an unowned item with the given diagnostic tag.
func NewItem(seq int64) *Item { return new(Item).init(seq) }

// init readies an item in place — the form slab allocations use.
func (it *Item) init(seq int64) *Item {
	it.Seq = seq
	it.owner.Store(noOwner)
	return it
}

// Owner returns the ID of the async attempt currently holding the item's
// lock, or -1. Round and colored attempts never lock an item.
func (it *Item) Owner() int64 { return it.owner.Load() }

// Task is a unit of speculative work (one iteration of an amorphous
// data-parallel loop). Run must acquire every item it touches through
// ctx and must return an acquisition's error (possibly wrapped) when
// there is one. Whether a task won is decided only after Run returns, so
// for a loser every statement of Run may run: Run reads shared state, and
// every write to shared state goes in ctx.OnCommit (the "cautious
// operator" pattern). A write Run makes to state only its own task owns,
// or on a path that acquires nothing (such a task always commits), must
// still be safe to run concurrently with the round's other tasks.
type Task interface {
	Run(ctx *Ctx) error
}

// TaskFunc adapts a function to Task.
type TaskFunc func(ctx *Ctx) error

// Run implements Task.
func (f TaskFunc) Run(ctx *Ctx) error { return f(ctx) }

// Ctx is the per-execution speculative context handed to Task.Run. It is
// confined to the executing goroutine and must not escape the Run call:
// the executor recycles contexts through a pool once the round's
// accounting is done.
type Ctx struct {
	acquired []*Item
	spawned  []Task
	onCommit []func()
	id       int64
	conflict conflictError // backing store of the error an async Acquire returns
	// locks marks an attempt of an async drive, the one mode without a
	// serial walk (async.go): its Acquire takes the item's lock by CAS
	// under the attempt's id and fails on an item another attempt holds.
	// Round and colored attempts only record what they acquire.
	locks bool
}

// ctxPool recycles Ctx values across attempts and executors. Contexts
// are scrubbed (all reference slots zeroed, capacity kept) before they
// are returned to the pool, so a pooled Ctx never carries spawns, commit
// actions, or item references from a previous attempt.
var ctxPool = sync.Pool{New: func() any { return new(Ctx) }}

// scrubSlice zeroes the slice's full backing capacity (dropping every
// reference it retains) and returns it empty, capacity preserved.
func scrubSlice[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// resized returns s at length n, reallocated only when n exceeds its
// capacity.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// emptied zeroes the slice's elements and returns it empty, capacity
// preserved — scrubSlice for a buffer whose spare capacity is already
// zero because every user empties what it wrote.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// scrub resets c for the next attempt: all reference slots are zeroed so
// nothing (spawned tasks, commit actions, item pointers) leaks into the
// next task that receives this context, while slice capacities are
// preserved so steady-state rounds allocate nothing.
func (c *Ctx) scrub() {
	c.locks, c.id = false, 0
	c.acquired = scrubSlice(c.acquired)
	c.spawned = scrubSlice(c.spawned)
	c.onCommit = scrubSlice(c.onCommit)
}

// Acquire declares that the task touches it. In a round (and a colored
// class) it records the item and never fails: the round's walk aborts
// the task if an earlier winner claimed the item. In an async drive it
// takes the item's lock; acquiring an item the attempt already holds
// succeeds, and an item another attempt holds fails the acquisition with
// an error that unwraps to ErrConflict, which the caller must return.
// The error is stored in the context, so it is valid until the executor
// recycles the context after settling the attempt — long enough to
// return or wrap it, not to keep it.
func (c *Ctx) Acquire(it *Item) error {
	if !c.locks {
		c.acquired = append(c.acquired, it)
		return nil
	}
	if it.owner.Load() == c.id {
		return nil
	}
	if !it.owner.CompareAndSwap(noOwner, c.id) {
		c.conflict = conflictError{item: it.Seq, holder: it.owner.Load(), requester: c.id}
		return &c.conflict
	}
	c.acquired = append(c.acquired, it)
	return nil
}

// AcquireAll acquires every item, failing fast on an async conflict.
func (c *Ctx) AcquireAll(items ...*Item) error {
	for _, it := range items {
		if err := c.Acquire(it); err != nil {
			return err
		}
	}
	return nil
}

// Spawn schedules a new task to enter the work-set if and only if the
// current task commits. Spawns by aborted tasks are discarded — newly
// generated work is a side effect like any other.
func (c *Ctx) Spawn(t Task) { c.spawned = append(c.spawned, t) }

// OnCommit registers a commit-time action: it runs serially, after every
// task of the round has finished and the round's walk has picked the
// winners, and only if the task committed (Galois-style commit actions).
// Every write to shared state belongs here: it must not race with other
// speculative tasks of the same round, and a loser's must not happen.
func (c *Ctx) OnCommit(fn func()) { c.onCommit = append(c.onCommit, fn) }

// release frees every lock an async attempt holds.
func (c *Ctx) release() {
	for _, it := range c.acquired {
		it.owner.Store(noOwner)
	}
	c.acquired = c.acquired[:0]
}

// RoundStats reports one executor round.
type RoundStats struct {
	Launched  int
	Committed int
	Aborted   int // conflict aborts (expected speculative losses)
	Premature int // ordered executor: the part of Aborted that ran ahead of newly spawned earlier work
	Failed    int // panics / non-conflict errors, rolled back and retried
	Poisoned  int // failures that exhausted the retry budget this round
	Spawned   int // new tasks entering the work-set from committed tasks
}

// ConflictRatio returns aborts/launched for the round (0 when idle) —
// the r_t the controller consumes. Failures are excluded: an injected
// panic is not contention, and throttling m in response would starve a
// healthy workload.
func (s RoundStats) ConflictRatio() float64 {
	if s.Launched == 0 {
		return 0
	}
	return float64(s.Aborted) / float64(s.Launched)
}

// add folds o's tallies into s.
func (s *RoundStats) add(o RoundStats) {
	s.Launched += o.Launched
	s.Committed += o.Committed
	s.Aborted += o.Aborted
	s.Premature += o.Premature
	s.Failed += o.Failed
	s.Poisoned += o.Poisoned
	s.Spawned += o.Spawned
}

// helpers is the process's one set of parked helper goroutines. Every
// executor's dispatch borrows from it: the goroutine that calls dispatch
// runs chunks itself, and a helper joins only while it arrives in time to
// claim one. A helper holds a round's record only while it is inside the
// round, so an executor owns nothing that has to be stopped, and an
// abandoned one is collectable.
//
// The set grows to max(GOMAXPROCS, the largest participant count any
// dispatch asked for) − 1 and never shrinks. Helpers are shared, not
// reserved: a round that finds every helper seated elsewhere runs on its
// caller, and its backoff learns from it. Up to 1024 wake tokens wait for
// a helper, so one dispatch of the largest job specd accepts fits; a token
// that finds the buffer full is not sent.
var helpers = helperPool{wake: make(chan *dispatchRecord, 1024)}

type helperPool struct {
	wake    chan *dispatchRecord // a token names the round a helper is asked to join
	grow    sync.Mutex
	started atomic.Int64 // helper goroutines running
	wakes   atomic.Int64 // helpers woken for a round or an async drive
	joins   atomic.Int64 // ... and helpers that claimed a chunk of one
}

// HelperCounts returns how many helpers the process's dispatches have
// woken so far, and how many of them claimed a chunk of the round or
// async drive they were woken for.
func HelperCounts() (wakes, joins int64) { return helpers.wakes.Load(), helpers.joins.Load() }

// ensure grows the set to at least n helpers, and then to at least
// GOMAXPROCS − 1. A helper joins each round it is woken for while that
// round has a seat.
func (p *helperPool) ensure(n int) {
	if int(p.started.Load()) >= n {
		return
	}
	p.grow.Lock()
	defer p.grow.Unlock()
	for want := max(n, runtime.GOMAXPROCS(0)-1); int(p.started.Load()) < want; {
		p.started.Add(1)
		go func() {
			for d := range p.wake {
				d.join()
			}
		}()
	}
}

// dispatchRecord is an executor's round descriptor, reused for every
// dispatch. state holds the round's seat bound in its high half and the
// helpers inside in its low half; a closed round has no seats. run, n
// and chunk change only while the record is closed and empty, so a late
// helper never sees a reset: the seat bound it checks is the one in the
// word it swaps.
//
// A wake-up costs the caller a cross-CPU signal, and a helper that arrives
// after the chunks have run out adds nothing. So after each round that
// woke helpers, backoff moves down one level if one of them claimed a
// chunk, up one (to maxBackoff) if none did, and the next 2^backoff − 1
// rounds that would wake helpers run on the caller alone.
type dispatchRecord struct {
	state         atomic.Int64 // seats<<32 | helpers inside
	next          atomic.Int64 // claim cursor: the first index not yet claimed
	joined        atomic.Int64 // helpers that claimed a chunk of the round, read and reset after it
	run           func(i int)
	n, chunk      int
	done          chan struct{} // the last helper out of a closed round signals here
	backoff, skip int           // caller-only: the learned level, and the rounds left to run alone
}

const (
	maxBackoff = 6 // late helpers are still probed once every 64 rounds
	seat       = 1 << 32
)

// join runs chunks of d's round if it has a free seat; a token left over
// from an earlier round finds none, or takes one this round offered.
func (d *dispatchRecord) join() {
	s := d.state.Load()
	for s%seat < s/seat && !d.state.CompareAndSwap(s, s+1) {
		s = d.state.Load()
	}
	if s%seat >= s/seat {
		return
	}
	if d.runFrom(d.claim()) {
		d.joined.Add(1)
	}
	if d.state.Add(-1) == 0 {
		d.done <- struct{}{}
	}
}

// claim takes the next chunk off the cursor and returns its first index.
func (d *dispatchRecord) claim() int { return int(d.next.Add(int64(d.chunk))) - d.chunk }

// runFrom runs the chunk starting at lo, then claims and runs chunks until
// the cursor passes n, and reports whether it ran any.
func (d *dispatchRecord) runFrom(lo int) (ran bool) {
	for ; lo < d.n; lo = d.claim() {
		ran = true
		for i := lo; i < min(lo+d.chunk, d.n); i++ {
			d.run(i)
		}
	}
	return ran
}

// maxChunk bounds the dispatch chunk size so uneven task costs still
// load-balance across participants within a round.
const maxChunk = 64

// poolSize resolves a MaxParallel setting to a participant count: 0 or
// less selects runtime.GOMAXPROCS(0).
func poolSize(maxParallel int) int {
	if maxParallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return maxParallel
}

// dispatch runs run(i) for every i in [0, n) on at most
// poolSize(maxParallel) participants, the caller included: it publishes
// the round with one seat per further chunk (at most size − 1), wakes a
// helper per seat unless the backoff has the round run alone, runs chunk
// 0 itself and claims more, then waits only for helpers already inside —
// no chunk waits for a goroutine to wake. everyHelper wakes them whatever
// the backoff, for a dispatch whose indices should all run at once.
// Called only from a round or a drive (single caller at a time).
func (d *dispatchRecord) dispatch(maxParallel, n int, run func(i int), everyHelper bool) {
	size := poolSize(maxParallel)
	d.run, d.n, d.chunk = run, n, min(max((n+size-1)/size, 1), maxChunk)
	d.next.Store(int64(d.chunk)) // chunk 0 is the caller's
	want := min((n-1)/d.chunk, size-1)
	if want > 0 && d.skip > 0 && !everyHelper {
		d.skip--
		want = 0
	}
	if want > 0 {
		if d.done == nil {
			d.done = make(chan struct{}, 1)
		}
		helpers.ensure(size - 1)
	}
	seats := int64(want) * seat
	d.state.Store(seats)
	woke, joined := 0, 0
	for k := want; k > 0; k-- {
		select {
		case helpers.wake <- d:
			woke++
		default: // the token buffer is full
		}
	}
	d.runFrom(0)
	if d.state.Add(-seats) != 0 {
		<-d.done
	}
	d.run = nil // a stale token must not keep the round's owner reachable
	if d.joined.Load() != 0 {
		joined = int(d.joined.Swap(0))
	}
	if want > 0 {
		if joined > 0 {
			d.backoff = max(d.backoff-1, 0)
		} else {
			d.backoff = min(d.backoff+1, maxBackoff)
		}
		d.skip = 1<<d.backoff - 1
		if woke != 0 {
			helpers.wakes.Add(int64(woke))
		}
		if joined != 0 {
			helpers.joins.Add(int64(joined))
		}
	}
}

// queued is one work-set entry: a task and the handle it was admitted
// under. The handle keys the failure budget and names the task in a
// FailureRecord; nothing looks a task up by it.
type queued struct {
	h int64
	t Task
}

// Executor runs tasks speculatively, round by round. Add and the
// statistics accessors are safe for concurrent use; Round must be called
// from one goroutine at a time (the adaptive drivers do).
type Executor struct {
	nextID atomic.Int64 // handles and async attempt IDs share one allocator

	mu      sync.Mutex      // guards pending only
	pending []queued        // the work-set
	pick    func(n int) int // selection policy: nil = take from tail

	// accounting holds the cumulative counters, failure budget, and
	// poison quarantine shared with the ordered executor; its exported
	// accessors (TotalLaunched, PoisonedTasks, OverallConflictRatio, …)
	// are promoted onto Executor.
	accounting

	// MaxParallel bounds how many attempts execute at once, in every mode:
	// it is the number of participants, the caller included (1 = the
	// caller alone, no goroutine); 0 or less selects runtime.GOMAXPROCS(0).
	// It is a cap: helpers come from the process's one pool, and a
	// dispatch that finds them busy elsewhere runs on fewer. A round wakes
	// its helpers only while they arrive in time to claim work; an async
	// drive keeps those it gets. It does not change what a round commits:
	// the serial walk picks the winners, so a round's outcome is a function
	// of its pick order at any participant count. An async drive whose
	// operators block wants MaxParallel ≥ m, which gives every unit of m
	// its own participant.
	MaxParallel int

	// TaskRetries is the per-task failure budget: a task whose attempt
	// panics or returns a non-conflict error is rolled back and retried
	// up to this many times before being poisoned (quarantined). 0
	// selects DefaultTaskRetries; a negative value disables retries
	// (first failure poisons). Conflict aborts never consume budget.
	TaskRetries int

	// WrapTask, when non-nil, intercepts every task entering the
	// work-set (Add and commit-time spawns) — the hook fault-injection
	// harnesses use. Set it before the executor is shared across
	// goroutines.
	WrapTask func(Task) Task

	dispatchRecord

	scratch roundScratch // round-local (Round is single-caller)
}

// roundScratch holds the working slices of a round, reused across rounds
// so a steady-state round allocates nothing. batch, requeue, spawned and
// actions hold references only while a round is in progress: settling
// clears what the round wrote, so a finished task is collectable at the
// barrier. ctxs is the executor's context cache: contexts are drawn from
// the global sync.Pool at the high-water mark, pre-assigned to round
// indices before dispatch (so workers never touch the pool), and scrubbed
// in place after accounting. The cache never shrinks; Executor.Close
// returns it to the pool.
type roundScratch struct {
	batch []queued // the entries this round runs
	ctxs  []*Ctx   // len is the high-water round size; [:n] used per round
	errs  []error

	requeue []queued // aborted and failed entries going back, in batch order
	spawned []queued // committed tasks' spawns, admitted
	actions []func() // committed tasks' commit actions

	run func(i int) // attempt, bound once so dispatching a round allocates nothing
}

func (r *roundScratch) grow(n int) {
	r.errs = resized(r.errs, n)
	for len(r.ctxs) < n {
		r.ctxs = append(r.ctxs, ctxPool.Get().(*Ctx))
	}
}

// attempt is Round's per-index body: workers touch only round-local
// slices, never the executor's shared state or the context pool.
func (r *roundScratch) attempt(i int) { r.errs[i] = runGuarded(r.batch[i].t, r.ctxs[i]) }

// walk is a round's second phase: it visits the n attempts in batch order
// and turns an attempt that finished cleanly into an abort if an earlier
// winner claimed one of its items; a winner books its own. Run's verdicts
// stand otherwise, so a task that failed or raised ErrConflict itself
// books nothing.
func (r *roundScratch) walk(n int) {
	stamp := stamps.Add(1)
	for i, c := range r.ctxs[:n] {
		if r.errs[i] == nil && !claim(c.acquired, stamp) {
			r.errs[i] = ErrConflict
		}
	}
}

// settled drops the references the round's n attempts left in the
// scratch — contexts scrubbed, lists cleared, capacity kept — so a
// finished task is collectable from the barrier on. The commit actions
// are left for runActions.
func (r *roundScratch) settled(n int) {
	for _, c := range r.ctxs[:n] {
		c.scrub()
	}
	clear(r.errs)
	r.batch = emptied(r.batch)
	r.requeue = emptied(r.requeue)
	r.spawned = emptied(r.spawned)
}

// runActions runs the collected commit actions serially, in commit
// order, forgetting each as it goes: an action that panics leaves nothing
// behind for the next round to run again.
func (r *roundScratch) runActions() {
	actions := r.actions
	r.actions = r.actions[:0]
	for i, fn := range actions {
		actions[i] = nil
		fn()
	}
}

// release returns every cached context to the global pool.
func (r *roundScratch) release() {
	for i, c := range r.ctxs {
		ctxPool.Put(c)
		r.ctxs[i] = nil
	}
	r.ctxs = r.ctxs[:0]
}

// NewExecutor returns an empty executor. If pick is non-nil it is used
// to select pending task indices (e.g. a seeded uniform picker to match
// the model's random selection); otherwise tasks are taken LIFO.
func NewExecutor(pick func(n int) int) *Executor {
	return &Executor{pick: pick}
}

// Close returns the executor's cached contexts to the global pool.
// Optional: an abandoned executor's contexts are collected with it.
func (e *Executor) Close() { e.scratch.release() }

// Snapshot is a point-in-time view of an executor's pending count and
// cumulative counters, obtained in one call. All fields are sampled
// race-free; because Round updates the counters while running, a
// snapshot taken mid-round is a consistent *monitoring* view (each
// field individually correct at sample time), not a round boundary.
type Snapshot struct {
	Pending   int
	Launched  int64
	Committed int64
	Aborted   int64
	Failed    int64 // failed attempts (panics / non-conflict errors)
	Poisoned  int64 // tasks quarantined after exhausting their budget
}

// ConflictRatio returns cumulative aborts/launches for the snapshot.
func (s Snapshot) ConflictRatio() float64 {
	if s.Launched == 0 {
		return 0
	}
	return float64(s.Aborted) / float64(s.Launched)
}

// Snapshot returns the executor's pending count and cumulative counters
// in one race-safe call — the accessor monitors (e.g. a status endpoint
// polling mid-run) should use instead of stitching together Pending and
// the Total* methods.
func (e *Executor) Snapshot() Snapshot {
	return e.accounting.snapshot(e.Pending())
}

// retryBudget resolves TaskRetries to the effective failure budget.
func (e *Executor) retryBudget() int { return resolveRetryBudget(e.TaskRetries) }

// admit is how a task becomes a work-set entry, from Add or from a
// committed task's spawns: through WrapTask, under a fresh handle.
func (e *Executor) admit(t Task) queued {
	if w := e.WrapTask; w != nil {
		t = w(t)
	}
	return queued{h: e.nextID.Add(1) - 1, t: t}
}

// admitSpawns admits a committed attempt's spawns onto out, counting
// them in st.
func (e *Executor) admitSpawns(c *Ctx, out []queued, st *RoundStats) []queued {
	for _, t := range c.spawned {
		out = append(out, e.admit(t))
	}
	st.Spawned += len(c.spawned)
	return out
}

// Add inserts a task into the work-set.
func (e *Executor) Add(t Task) { e.requeue(e.admit(t)) }

// Pending returns the number of tasks awaiting execution.
func (e *Executor) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// take moves up to m pending entries into buf[:0] per the selection
// policy. A popped slot is zeroed: the work-set's spare capacity keeps
// no task reachable.
func (e *Executor) take(buf []queued, m int) []queued {
	buf = buf[:0]
	e.mu.Lock()
	defer e.mu.Unlock()
	for ; m > 0 && len(e.pending) > 0; m-- {
		last := len(e.pending) - 1
		j := last
		if e.pick != nil {
			j = e.pick(len(e.pending))
		}
		buf = append(buf, e.pending[j])
		e.pending[j] = e.pending[last]
		e.pending[last] = queued{}
		e.pending = e.pending[:last]
	}
	return buf
}

// requeue appends entries to the work-set.
func (e *Executor) requeue(qs ...queued) {
	if len(qs) == 0 {
		return
	}
	e.mu.Lock()
	e.pending = append(e.pending, qs...)
	e.mu.Unlock()
}

// verdict is the outcome of one settled attempt under the failure
// taxonomy above.
type verdict uint8

const (
	verdictCommit verdict = iota
	verdictAbort          // lost a speculative race: goes back, no budget spent
	verdictRetry          // failed with budget left: goes back
	verdictPoison         // failed with no budget left: quarantined, dropped
)

// settle grades one finished attempt of q — already rolled back if it
// did not commit — spends or forgets its failure budget, and tallies it
// in st. It is the one statement of the taxonomy for the unordered
// executor: the round path (every colored class included) and the async
// path both settle through it and add only what is theirs (held locks,
// window accounting).
func (e *Executor) settle(q queued, err error, budget int, st *RoundStats) verdict {
	st.Launched++
	switch {
	case err == nil:
		st.Committed++
		// A previously failed task may have recovered; forget its record.
		e.clearFailure(q.h)
		return verdictCommit
	case errors.Is(err, ErrConflict):
		st.Aborted++
		return verdictAbort
	}
	st.Failed++
	if _, poisoned := e.noteFailure(q.h, budget, err.Error()); poisoned {
		st.Poisoned++
		return verdictPoison
	}
	return verdictRetry
}

// Round launches up to m pending tasks speculatively and waits for all
// of them, then walks them in batch order: a task commits iff no earlier
// winner claimed one of its items, so the committed set is the greedy
// maximal independent set of the batch order, whatever the participant
// count. Committed tasks leave the work-set and their spawns enter it;
// aborted tasks are requeued.
//
// The round runs on the caller and the pool's helpers, which claim chunks
// of its index space off one cursor, so per-task scheduling cost is
// amortized away and a small round needs no hand-off at all.
func (e *Executor) Round(m int) RoundStats {
	if m < 0 {
		panic("speculation: negative round size")
	}
	e.scratch.batch = e.take(e.scratch.batch, m)
	return e.runBatch()
}

// runBatch runs the scratch batch as one round — dispatch, walk, settle,
// requeue, then the winners' commit actions — and leaves the batch empty.
// Round takes its batch from the work-set; a colored super-round runs each
// color class through here (colored.go).
func (e *Executor) runBatch() RoundStats {
	s := &e.scratch
	n := len(s.batch)
	if n == 0 {
		return RoundStats{}
	}
	s.grow(n)
	if s.run == nil {
		s.run = s.attempt
	}
	e.dispatch(e.MaxParallel, n, s.run, false)
	s.walk(n)
	var stats RoundStats
	budget := e.retryBudget()
	for i, q := range s.batch {
		switch e.settle(q, s.errs[i], budget, &stats) {
		case verdictCommit:
			s.spawned = e.admitSpawns(s.ctxs[i], s.spawned, &stats)
			s.actions = append(s.actions, s.ctxs[i].onCommit...)
		case verdictAbort, verdictRetry:
			s.requeue = append(s.requeue, q)
		}
	}
	// Aborted entries go back first (they are retries), then the newly
	// spawned work — each as one batched insertion.
	e.requeue(s.requeue...)
	e.requeue(s.spawned...)
	s.settled(n)
	e.addTotals(stats)
	s.runActions()
	return stats
}
