// Package speculation implements a Galois-style optimistic parallelization
// runtime (§1): tasks drawn from a work-set execute speculatively and
// concurrently on goroutines; conflicts are detected at runtime through
// exclusive abstract locks on shared items; a conflicting task aborts,
// rolls back its side effects through an undo log, and is retried in a
// later round.
//
// Execution is round-structured to mirror the paper's model: each round
// launches m tasks (m chosen by a processor-allocation controller), waits
// for all of them, and reports the measured conflict ratio r = aborts/m.
// Locks are held to the end of the round, so intra-round semantics match
// the model's "a task aborts iff it conflicts with a task that committed
// before it".
//
// The paper assumes conflicting and non-conflicting tasks cost the same
// (§2, as in Delaunay mesh refinement); the runtime therefore treats an
// abort as a full processor-round of wasted work in its accounting.
//
// The executor itself is built for throughput: the work-set holds the
// tasks themselves (each entry is a task plus the handle its failure
// budget is keyed by), so a round is "pop m entries, run them, append
// the losers back" with no table in between; a round runs on its caller
// plus up to MaxParallel − 1 persistent helpers claiming chunks of its
// index space off one atomic cursor (no hand-off: a small round usually
// runs on the caller alone, and helpers are woken only while they arrive
// in time to claim a chunk; an async drive is one dispatch on the same
// pool), attempt IDs come from an atomic counter, and per-attempt
// contexts are recycled through a sync.Pool. A conflict abort — the
// common case at the paper's ρ = 0.25 — allocates nothing: the error
// Acquire returns lives in the attempt's context, and a steady-state
// round allocates nothing at all.
package speculation

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrConflict is what Ctx.Acquire's error unwraps to when the requested
// item is held by another in-flight task. Operator code must propagate
// that error (or wrap it) so the executor can roll the task back.
var ErrConflict = errors.New("speculation: conflict detected")

// conflictError is the error Acquire returns on a lost race. Losing is
// the expected outcome of speculation, so the abort path allocates
// nothing: the value lives inside the aborting Ctx and the message is
// formatted only if somebody asks for it.
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
//	abort     — Run returned ErrConflict (possibly wrapped); the task
//	            lost a speculative race, is rolled back, and is requeued
//	            unconditionally. Aborts are *expected* (the paper's
//	            premise) and never consume the retry budget.
//	failure   — Run panicked or returned any other error; the task is
//	            rolled back (undo log run, locks released, Ctx scrubbed)
//	            and retried until its budget is exhausted.
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

// runGuarded executes one task attempt with panic isolation: a panic in
// operator code is converted into a *PanicError so the executor treats
// it as a task failure (rollback + retry budget) rather than a crash.
func runGuarded(t Task, ctx *Ctx) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return t.Run(ctx)
}

const noOwner int64 = -1

// Item is a lockable abstract location. Tasks must acquire an item
// before reading or writing the state it guards. The zero value is not
// ready; use NewItem.
type Item struct {
	owner atomic.Int64
	// Seq is an optional caller-visible tag (e.g. graph node ID) used in
	// diagnostics.
	Seq int64
}

// NewItem returns an unowned item with the given diagnostic tag.
func NewItem(seq int64) *Item { return new(Item).init(seq) }

// init readies an item in place — the form slab allocations use.
func (it *Item) init(seq int64) *Item {
	it.Seq = seq
	it.owner.Store(noOwner)
	return it
}

// Owner returns the ID of the task currently holding the item, or -1.
func (it *Item) Owner() int64 { return it.owner.Load() }

// Task is a unit of speculative work (one iteration of an amorphous
// data-parallel loop). Run must acquire every item it touches through
// ctx and must return ErrConflict (possibly wrapped) when an acquisition
// fails. Any side effect on shared state must either be registered with
// ctx.LogUndo or be deferred until all acquisitions are done (the
// "cautious operator" pattern, which needs no rollback).
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
	id       int64
	acquired []*Item
	undo     []func()
	spawned  []Task
	onCommit []func()
	aborted  bool
	conflict conflictError // backing store of the error Acquire returns
	// colored marks a context executing inside a colored round (see
	// colored.go): tasks in one color class are pairwise conflict-free by
	// construction, so Acquire records the footprint without taking the
	// item lock — no CAS, no abort path. The footprint is still collected
	// so the staleness detector can check it against the declared graph
	// at the class barrier.
	colored bool
}

// ctxPool recycles Ctx values across attempts and executors. Contexts
// are scrubbed (all reference slots zeroed, capacity kept) before they
// are returned to the pool, so a pooled Ctx never carries undo logs,
// spawns, or lock references from a previous attempt.
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
// nothing (undo closures, spawned tasks, lock pointers) leaks into the
// next task that receives this context, while slice capacities are
// preserved so steady-state rounds allocate nothing.
func (c *Ctx) scrub() {
	c.id = 0
	c.aborted = false
	c.colored = false
	c.acquired = scrubSlice(c.acquired)
	c.undo = scrubSlice(c.undo)
	c.spawned = scrubSlice(c.spawned)
	c.onCommit = scrubSlice(c.onCommit)
}

// ID returns the executing task's runtime ID (unique per attempt).
func (c *Ctx) ID() int64 { return c.id }

// Acquire takes an exclusive abstract lock on it. Acquiring an item the
// task already holds succeeds. If another task holds it, the acquisition
// fails with an error that unwraps to ErrConflict: the caller must unwind
// and return it. The error is stored in the context, so it is valid
// until the executor recycles the context after settling the attempt —
// long enough to return or wrap it, not to keep it.
func (c *Ctx) Acquire(it *Item) error {
	if c.colored {
		// Colored round: conflict freedom is guaranteed by the coloring,
		// so just record the footprint for post-hoc staleness checking.
		c.acquired = append(c.acquired, it)
		return nil
	}
	if it.owner.Load() == c.id {
		return nil
	}
	if !it.owner.CompareAndSwap(noOwner, c.id) {
		c.aborted = true
		c.conflict = conflictError{item: it.Seq, holder: it.owner.Load(), requester: c.id}
		return &c.conflict
	}
	c.acquired = append(c.acquired, it)
	return nil
}

// AcquireAll acquires every item, failing fast on the first conflict.
func (c *Ctx) AcquireAll(items ...*Item) error {
	for _, it := range items {
		if err := c.Acquire(it); err != nil {
			return err
		}
	}
	return nil
}

// Holds reports whether the task currently holds it.
func (c *Ctx) Holds(it *Item) bool { return it.owner.Load() == c.id }

// LogUndo registers a compensation action to be executed (in reverse
// registration order) if the task aborts. Register the undo *before*
// applying the corresponding mutation.
func (c *Ctx) LogUndo(fn func()) { c.undo = append(c.undo, fn) }

// Spawn schedules a new task to enter the work-set if and only if the
// current task commits. Spawns by aborted tasks are discarded as part of
// rollback — newly generated work is a side effect like any other.
func (c *Ctx) Spawn(t Task) { c.spawned = append(c.spawned, t) }

// OnCommit registers a commit-time action: it runs serially, after every
// task of the round has finished and locks have been released, and only
// if the task committed (Galois-style commit actions). Use it for
// structural mutations that must not race with other speculative tasks
// of the same round, e.g. removing a processed node from a shared graph.
func (c *Ctx) OnCommit(fn func()) { c.onCommit = append(c.onCommit, fn) }

// rollback runs the undo log in reverse order and clears the context's
// pending side effects. Slice capacity is kept for pooled reuse.
func (c *Ctx) rollback() {
	for i := len(c.undo) - 1; i >= 0; i-- {
		c.undo[i]()
	}
	c.undo = c.undo[:0]
	c.spawned = c.spawned[:0]
	c.onCommit = c.onCommit[:0]
}

// release frees every lock the task holds.
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

// workerPool is a help-first pool of size participants: the goroutine
// that calls dispatch plus size − 1 parked helpers. Helpers reference only
// the dispatch record, never the pool or its executor, so an abandoned
// executor stays collectable: the pool's finalizer closes the wake
// channel and the helpers exit.
//
// A wake-up costs the caller a cross-CPU signal, and a helper that arrives
// after the chunks have run out adds nothing. So after each round that
// woke helpers, backoff moves down one level if one of them claimed a
// chunk, up one (to maxBackoff) if none did, and the next 2^backoff − 1
// rounds that would wake helpers run on the caller alone.
type workerPool struct {
	*dispatchRecord
	size          int
	backoff, skip int // caller-only: the learned level, and the rounds left to run alone
	stop          sync.Once
}

const maxBackoff = 6 // late helpers are still probed once every 64 rounds

// dispatchRecord is the round descriptor a pool reuses for every dispatch.
// state admits helpers only while it is open, and run, n and chunk change
// only while it is closed and empty: a late helper never sees a reset.
type dispatchRecord struct {
	state    atomic.Int64 // recordOpen while a round is published, plus the helpers inside
	next     atomic.Int64 // claim cursor: the first index not yet claimed
	joined   atomic.Int64 // helpers that claimed a chunk of the round, read and reset after it
	run      func(i int)
	n, chunk int
	wake     chan struct{} // one token per helper asked to join
	done     chan struct{} // the last helper out of a closed round signals here
}

const recordOpen = 1 << 32

func newWorkerPool(size int) *workerPool {
	d := &dispatchRecord{wake: make(chan struct{}, size-1), done: make(chan struct{}, 1)}
	for i := 1; i < size; i++ {
		go d.helper()
	}
	p := &workerPool{dispatchRecord: d, size: size}
	runtime.SetFinalizer(p, (*workerPool).shutdown)
	return p
}

// helper joins each round it is woken for while that round is still open;
// one that wakes after the round has closed parks again.
func (d *dispatchRecord) helper() {
	for range d.wake {
		s := d.state.Load()
		for s&recordOpen != 0 && !d.state.CompareAndSwap(s, s+1) {
			s = d.state.Load()
		}
		if s&recordOpen == 0 {
			continue
		}
		if d.runFrom(d.claim()) {
			d.joined.Add(1)
		}
		if d.state.Add(-1) == 0 {
			d.done <- struct{}{}
		}
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

// shutdown terminates the helpers. Idempotent.
func (p *workerPool) shutdown() {
	p.stop.Do(func() { close(p.wake) })
}

// maxChunk bounds the dispatch chunk size so uneven task costs still
// load-balance across participants within a round.
const maxChunk = 64

// dispatch runs run(i) for every i in [0, n): it publishes the round, wakes
// up to one helper per further chunk unless the backoff has the round run
// alone, runs chunk 0 itself and claims more, then waits only for helpers
// already inside — no chunk waits for a goroutine to wake. everyHelper
// wakes them whatever the backoff, for a dispatch whose indices must all
// run at once. It returns the helpers it woke and the helpers that claimed
// a chunk of the round.
func (p *workerPool) dispatch(n int, run func(i int), everyHelper bool) (woke, joined int) {
	p.run, p.n, p.chunk = run, n, min(max((n+p.size-1)/p.size, 1), maxChunk)
	p.next.Store(int64(p.chunk)) // chunk 0 is the caller's
	p.state.Store(recordOpen)
	want := min((n-1)/p.chunk, p.size-1)
	if want > 0 && p.skip > 0 && !everyHelper {
		p.skip--
		want = 0
	}
	for k := want; k > 0; k-- {
		select {
		case p.wake <- struct{}{}:
			woke++
		default: // every helper already holds a token
		}
	}
	p.runFrom(0)
	if p.state.Add(-recordOpen) != 0 {
		<-p.done
	}
	p.run = nil // parked helpers must not keep the round's owner reachable
	if p.joined.Load() != 0 {
		joined = int(p.joined.Swap(0))
	}
	if want > 0 {
		if joined > 0 {
			p.backoff = max(p.backoff-1, 0)
		} else {
			p.backoff = min(p.backoff+1, maxBackoff)
		}
		p.skip = 1<<p.backoff - 1
	}
	return woke, joined
}

// pooled owns the worker pool of an executor, ordered or not, in every
// mode: built at the first dispatch, rebuilt when MaxParallel changes
// between dispatches. Its counters span every pool it has owned.
type pooled struct {
	pool        *workerPool
	helperWakes atomic.Int64 // helpers woken for a round or an async drive
	helperJoins atomic.Int64 // ... and helpers that claimed a chunk of one
}

// poolSize resolves a MaxParallel setting to a worker count: 0 or less
// selects runtime.GOMAXPROCS(0).
func poolSize(maxParallel int) int {
	if maxParallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return maxParallel
}

// dispatch runs run(i) for every i in [0, n) on a pool of
// poolSize(maxParallel) participants, replacing a stale-sized one. Called
// only from a round or a drive (single caller at a time).
func (p *pooled) dispatch(maxParallel, n int, run func(i int), everyHelper bool) {
	if size := poolSize(maxParallel); p.pool == nil || p.pool.size != size {
		p.closePool()
		p.pool = newWorkerPool(size)
	}
	woke, joined := p.pool.dispatch(n, run, everyHelper)
	if woke != 0 {
		p.helperWakes.Add(int64(woke))
	}
	if joined != 0 {
		p.helperJoins.Add(int64(joined))
	}
}

func (p *pooled) closePool() {
	if p.pool != nil {
		p.pool.shutdown()
		p.pool = nil
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
	nextID atomic.Int64 // handles and attempt IDs share one allocator

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
	// A round wakes its helpers only while they arrive in time to claim
	// work; an async drive keeps them all. It does not set a round's
	// conflict ratio: locks are held to the barrier whatever the pool
	// size. An async drive whose operators block wants MaxParallel ≥ m,
	// which gives every unit of m its own participant.
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

	pooled

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
	batch  []queued // the entries this round runs
	ctxs   []*Ctx   // len is the high-water round size; [:n] used per round
	errs   []error
	idBase int64 // attempt ID of batch[0]

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
func (r *roundScratch) attempt(i int) {
	c := r.ctxs[i]
	c.id = r.idBase + int64(i)
	r.errs[i] = attempt(r.batch[i].t, c)
}

// attempt runs one speculative attempt of t in c. A failed attempt rolls
// back while still holding its locks (compensation is race-free), then
// releases them immediately: in the model, an aborted task does not block
// its other neighbors from committing in the same round. Failures (panics,
// non-conflict errors) take the same path, so a panicking task never
// strands locks or undo state. A committed attempt keeps its locks for
// the caller to release at the barrier.
func attempt(t Task, c *Ctx) error {
	err := runGuarded(t, c)
	if err != nil {
		c.rollback()
		c.release()
	}
	return err
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

// Close releases the executor's worker pool (if any) and returns its
// cached contexts to the global pool. Optional: an executor abandoned
// without Close is cleaned up by a finalizer.
func (e *Executor) Close() {
	e.closePool()
	e.scratch.release()
}

// Snapshot is a point-in-time view of an executor's pending count and
// cumulative counters, obtained in one call. All fields are sampled
// race-free; because Round updates the counters while running, a
// snapshot taken mid-round is a consistent *monitoring* view (each
// field individually correct at sample time), not a round boundary.
type Snapshot struct {
	Pending     int
	Launched    int64
	Committed   int64
	Aborted     int64
	Failed      int64 // failed attempts (panics / non-conflict errors)
	Poisoned    int64 // tasks quarantined after exhausting their budget
	HelperWakes int64 // pool helpers woken for a round or an async drive
	HelperJoins int64 // ... and helpers that claimed a chunk of one
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
	return e.accounting.snapshot(e.Pending(), &e.pooled)
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
// executor: the round, colored and async paths all settle through it and
// add only what is theirs (held locks, staleness, window accounting).
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
// of them. Committed tasks leave the work-set and their spawns enter it;
// aborted tasks are rolled back and requeued. Locks are released only
// after every task in the round has finished, preserving the model's
// commit-order semantics.
//
// The round runs on the caller and the pool's helpers, which claim chunks
// of its index space off one cursor, so per-task scheduling cost is
// amortized away and a small round needs no hand-off at all.
func (e *Executor) Round(m int) RoundStats {
	if m < 0 {
		panic("speculation: negative round size")
	}
	s := &e.scratch
	s.batch = e.take(s.batch, m)
	n := len(s.batch)
	if n == 0 {
		return RoundStats{}
	}
	s.grow(n)
	// Reserve the round's attempt IDs with one atomic add; IDs share the
	// allocator with handles, so both stay globally unique.
	s.idBase = e.nextID.Add(int64(n)) - int64(n)
	if s.run == nil {
		s.run = s.attempt
	}
	e.dispatch(e.MaxParallel, n, s.run, false)

	// Round barrier passed: release the committed tasks' locks (aborted
	// tasks already released on rollback), then settle every attempt.
	for i, c := range s.ctxs[:n] {
		if s.errs[i] == nil {
			c.release()
		}
	}
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
