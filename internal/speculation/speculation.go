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
// The executor itself is built for throughput: rounds are served by a
// persistent pool of MaxParallel workers fed chunks of the round's index
// space (one channel send per chunk, not one goroutine per task), task
// handles live in a sharded task table, attempt IDs come from an atomic
// counter, and per-attempt contexts are recycled through a sync.Pool.
// A conflict abort — the common case at the paper's ρ = 0.25 — allocates
// nothing: the error Acquire returns lives in the attempt's context.
// Setting MaxParallel to 0 bypasses the pool and launches one goroutine
// per task — the model-faithful "one processor per task" simulation mode.
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
	// so the staleness detector can check it against the learned graph at
	// the class barrier.
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

// HandleSet is the work-set abstraction the executor draws task handles
// from; implementations define the selection policy (random draws match
// the paper's model; FIFO/LIFO/chunked are provided by internal/workset).
type HandleSet interface {
	Put(h int64)
	// PutAll inserts many handles at once; the executor uses it to
	// requeue a whole round's aborts and spawns in one call.
	PutAll(hs []int64)
	Take(k int) []int64
	Len() int
}

// numTaskShards stripes the executor's handle→task map. Power of two so
// the shard index is a mask. 16 shards keep Add/commit contention
// negligible up to well past the core counts the controllers allocate.
const numTaskShards = 16

// taskShard is one stripe of the task table, padded to a cache line so
// neighboring shard locks do not false-share.
type taskShard struct {
	mu sync.Mutex
	m  map[int64]Task
	_  [40]byte
}

// taskTable is an N-way striped map from task handle to task. Handles
// are assigned round-robin by the atomic ID allocator, so striping by
// the low bits spreads load uniformly.
type taskTable struct {
	shards [numTaskShards]taskShard
}

func (t *taskTable) shard(h int64) *taskShard {
	return &t.shards[uint64(h)&(numTaskShards-1)]
}

func (t *taskTable) store(h int64, task Task) {
	s := t.shard(h)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[int64]Task)
	}
	s.m[h] = task
	s.mu.Unlock()
}

func (t *taskTable) load(h int64) Task {
	s := t.shard(h)
	s.mu.Lock()
	task := s.m[h]
	s.mu.Unlock()
	return task
}

// delete removes a single handle (the async path settles tasks one at
// a time; the round path uses deleteBatch).
func (t *taskTable) delete(h int64) {
	s := t.shard(h)
	s.mu.Lock()
	delete(s.m, h)
	s.mu.Unlock()
}

// shardBuckets is per-round scratch grouping round indices by shard so
// batch operations take each shard lock once instead of once per task.
type shardBuckets [numTaskShards][]int32

func (b *shardBuckets) reset() {
	for i := range b {
		b[i] = b[i][:0]
	}
}

// loadBatch resolves tasks[i] = table[handles[i]] for every index in
// idx's buckets, one lock acquisition per touched shard.
func (t *taskTable) loadBatch(handles []int64, tasks []Task, b *shardBuckets) {
	b.reset()
	for i, h := range handles {
		s := uint64(h) & (numTaskShards - 1)
		b[s] = append(b[s], int32(i))
	}
	for s := range b {
		if len(b[s]) == 0 {
			continue
		}
		sh := &t.shards[s]
		sh.mu.Lock()
		for _, i := range b[s] {
			tasks[i] = sh.m[handles[i]]
		}
		sh.mu.Unlock()
	}
}

// deleteBatch removes every handle, one lock acquisition per touched
// shard.
func (t *taskTable) deleteBatch(handles []int64, b *shardBuckets) {
	b.reset()
	for i, h := range handles {
		s := uint64(h) & (numTaskShards - 1)
		b[s] = append(b[s], int32(i))
	}
	for s := range b {
		if len(b[s]) == 0 {
			continue
		}
		sh := &t.shards[s]
		sh.mu.Lock()
		for _, i := range b[s] {
			delete(sh.m, handles[i])
		}
		sh.mu.Unlock()
	}
}

// poolChunk is one dispatch unit: workers call run for every index in
// [lo, hi) and then signal the round's wait group.
type poolChunk struct {
	lo, hi int
	run    func(i int)
	wg     *sync.WaitGroup
}

// workerPool is a persistent set of goroutines executing index chunks.
// Workers hold a reference to the channel only — never to the owning
// executor — so an abandoned executor is still collectable: its
// finalizer closes the channel and the workers exit.
type workerPool struct {
	work chan poolChunk
	size int
	stop sync.Once
}

func newWorkerPool(size int) *workerPool {
	p := &workerPool{work: make(chan poolChunk, size), size: size}
	for i := 0; i < size; i++ {
		go poolWorker(p.work)
	}
	// Belt-and-braces: executors that are dropped without Close still
	// release their workers once the pool is collected.
	runtime.SetFinalizer(p, (*workerPool).shutdown)
	return p
}

func poolWorker(work <-chan poolChunk) {
	for c := range work {
		for i := c.lo; i < c.hi; i++ {
			c.run(i)
		}
		c.wg.Done()
	}
}

// shutdown terminates the workers. Idempotent.
func (p *workerPool) shutdown() {
	p.stop.Do(func() { close(p.work) })
}

// maxChunk bounds the dispatch chunk size so uneven task costs still
// load-balance across workers within a round.
const maxChunk = 64

// dispatch splits [0, n) across the workers and blocks until every
// index has been processed.
func (p *workerPool) dispatch(n int, run func(i int)) {
	chunk := (n + p.size - 1) / p.size
	if chunk > maxChunk {
		chunk = maxChunk
	}
	if chunk < 1 {
		chunk = 1
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		p.work <- poolChunk{lo: lo, hi: hi, run: run, wg: &wg}
	}
	wg.Wait()
}

// Executor runs tasks speculatively, round by round. Add and the
// statistics accessors are safe for concurrent use; Round must be called
// from one goroutine at a time (the adaptive drivers do).
type Executor struct {
	tasks  taskTable
	ws     HandleSet // nil when pending+randTk are used
	nextID atomic.Int64

	mu      sync.Mutex      // guards pending only
	pending []int64         // task handles awaiting execution
	randTk  func(n int) int // selection policy: nil = take from tail

	// accounting holds the cumulative counters, failure budget, and
	// poison quarantine shared with the ordered executor; its exported
	// accessors (TotalLaunched, PoisonedTasks, OverallConflictRatio, …)
	// are promoted onto Executor.
	accounting

	// MaxParallel sets the size of the persistent worker pool serving
	// rounds; 0 means "one goroutine per task", faithfully simulating
	// one processor per task (no pool involved).
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

	pool *workerPool

	// rec, when non-nil, observes the footprints of committed tasks at
	// the round barrier — the learning phase of colored execution (see
	// conflict.go). Set and cleared only by driveColored, which owns the
	// Round loop while it runs.
	rec *ConflictRecorder

	// Round-local scratch (Round is single-caller): shard buckets for
	// batched task-table access, the committed-handle list, and the
	// per-attempt slices reused across rounds.
	buckets   shardBuckets
	committed []int64
	scratch   roundScratch
}

// roundScratch holds the per-round working slices. tasks and errs are
// fully overwritten each round. ctxs is the executor's context cache:
// contexts are drawn from the global sync.Pool at the high-water mark,
// pre-assigned to round indices before dispatch (so workers never touch
// the pool), and scrubbed in place after accounting. The cache never
// shrinks; Executor.Close returns it to the pool.
type roundScratch struct {
	tasks []Task
	ctxs  []*Ctx // len is the high-water round size; [:n] used per round
	errs  []error
}

func (r *roundScratch) grow(n int) {
	if cap(r.tasks) < n {
		r.tasks = make([]Task, n)
		r.errs = make([]error, n)
	} else {
		r.tasks = r.tasks[:n]
		r.errs = r.errs[:n]
	}
	for len(r.ctxs) < n {
		r.ctxs = append(r.ctxs, ctxPool.Get().(*Ctx))
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
	return &Executor{randTk: pick}
}

// NewExecutorWithWorkset returns an executor drawing its task handles
// from the given work-set policy (see internal/workset), enabling
// selection-policy studies on real workloads.
func NewExecutorWithWorkset(ws HandleSet) *Executor {
	return &Executor{ws: ws}
}

// Close releases the executor's worker pool (if any) and returns its
// cached contexts to the global pool. Optional: an executor abandoned
// without Close is cleaned up by a finalizer.
func (e *Executor) Close() {
	if e.pool != nil {
		e.pool.shutdown()
		e.pool = nil
	}
	e.scratch.release()
}

// ensurePool returns a pool of exactly size workers, replacing a
// stale-sized one. Called only from Round (single caller at a time).
func (e *Executor) ensurePool(size int) *workerPool {
	if e.pool == nil || e.pool.size != size {
		if e.pool != nil {
			e.pool.shutdown()
		}
		e.pool = newWorkerPool(size)
	}
	return e.pool
}

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

// Add inserts a task into the work-set.
func (e *Executor) Add(t Task) {
	if w := e.WrapTask; w != nil {
		t = w(t)
	}
	id := e.nextID.Add(1) - 1
	e.tasks.store(id, t)
	if e.ws != nil {
		e.ws.Put(id)
		return
	}
	e.mu.Lock()
	e.pending = append(e.pending, id)
	e.mu.Unlock()
}

// Pending returns the number of tasks awaiting execution.
func (e *Executor) Pending() int {
	if e.ws != nil {
		return e.ws.Len()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// take removes up to m pending handles per the selection policy.
func (e *Executor) take(m int) []int64 {
	if e.ws != nil {
		return e.ws.Take(m)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if m > len(e.pending) {
		m = len(e.pending)
	}
	out := make([]int64, 0, m)
	for i := 0; i < m; i++ {
		var j int
		if e.randTk != nil {
			j = e.randTk(len(e.pending))
		} else {
			j = len(e.pending) - 1
		}
		last := len(e.pending) - 1
		e.pending[j], e.pending[last] = e.pending[last], e.pending[j]
		out = append(out, e.pending[last])
		e.pending = e.pending[:last]
	}
	return out
}

// requeueAll returns handles to the work-set in one batched call.
func (e *Executor) requeueAll(hs []int64) {
	if len(hs) == 0 {
		return
	}
	if e.ws != nil {
		e.ws.PutAll(hs)
		return
	}
	e.mu.Lock()
	e.pending = append(e.pending, hs...)
	e.mu.Unlock()
}

// Round launches up to m pending tasks speculatively and waits for all
// of them. Committed tasks leave the work-set and their spawns enter it;
// aborted tasks are rolled back and requeued. Locks are released only
// after every task in the round has finished, preserving the model's
// commit-order semantics.
//
// With MaxParallel > 0 the round is executed by the persistent worker
// pool: the round's index space is cut into chunks and each chunk is one
// channel send, so per-task scheduling cost is amortized away. With
// MaxParallel = 0 every task gets its own goroutine (the paper's
// one-processor-per-task reading).
func (e *Executor) Round(m int) RoundStats {
	if m < 0 {
		panic("speculation: negative round size")
	}
	handles := e.take(m)
	n := len(handles)
	if n == 0 {
		return RoundStats{}
	}

	// Resolve the round's tasks and pre-assign pooled contexts up front:
	// workers then touch only round-local slices, never the executor's
	// shared state or the context pool.
	e.scratch.grow(n)
	tasks, ctxs, errs := e.scratch.tasks, e.scratch.ctxs, e.scratch.errs
	e.tasks.loadBatch(handles, tasks, &e.buckets)
	// Reserve the round's attempt IDs with one atomic add; IDs share the
	// allocator with handles, so both stay globally unique.
	idBase := e.nextID.Add(int64(n)) - int64(n)
	run := func(i int) {
		ctx := ctxs[i]
		ctx.id = idBase + int64(i)
		err := runGuarded(tasks[i], ctx)
		if err != nil {
			// Roll back while still holding the locks (compensation
			// is race-free), then release immediately: in the
			// model, an aborted task does not block its other
			// neighbors from committing in the same round. Failures
			// (panics, non-conflict errors) take the same path, so a
			// panicking task never strands locks or undo state.
			ctx.rollback()
			ctx.release()
		}
		errs[i] = err
	}

	if e.MaxParallel > 0 {
		e.ensurePool(e.MaxParallel).dispatch(n, run)
	} else {
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func(i int) {
				defer wg.Done()
				run(i)
			}(i)
		}
		wg.Wait()
	}

	// Round barrier passed: release the committed tasks' locks (aborted
	// tasks already released on rollback), then run commit actions
	// serially and account.
	for i := 0; i < n; i++ {
		if errs[i] == nil {
			// Learning for colored execution happens here, on the round
			// driver thread before the footprint is cleared: only
			// committed tasks contribute edges (aborted tasks retry and
			// are observed when they eventually commit).
			if e.rec != nil {
				e.rec.recordCommit(tasks[i], ctxs[i].acquired)
			}
			ctxs[i].release()
		}
	}
	stats := RoundStats{Launched: n}
	budget := e.retryBudget()
	wrap := e.WrapTask
	var commitActions []func()
	var requeue, spawnedIDs, poisonHandles []int64
	e.committed = e.committed[:0]
	for i := 0; i < n; i++ {
		if err := errs[i]; err != nil {
			if errors.Is(err, ErrConflict) {
				stats.Aborted++
				requeue = append(requeue, handles[i])
				continue
			}
			// Failure (panic or non-conflict error): the attempt was
			// already rolled back; spend retry budget or quarantine.
			stats.Failed++
			h := handles[i]
			if _, poisoned := e.noteFailure(h, budget, err.Error()); poisoned {
				stats.Poisoned++
				poisonHandles = append(poisonHandles, h)
				continue
			}
			requeue = append(requeue, h)
			continue
		}
		stats.Committed++
		// A previously failed task may have recovered; forget its record.
		e.clearFailure(handles[i])
		e.committed = append(e.committed, handles[i])
		for _, t := range ctxs[i].spawned {
			if wrap != nil {
				t = wrap(t)
			}
			id := e.nextID.Add(1) - 1
			e.tasks.store(id, t)
			spawnedIDs = append(spawnedIDs, id)
			stats.Spawned++
		}
		commitActions = append(commitActions, ctxs[i].onCommit...)
	}
	e.tasks.deleteBatch(e.committed, &e.buckets)
	if len(poisonHandles) != 0 {
		// Quarantined tasks leave the task table like commits do, but
		// are never requeued.
		e.tasks.deleteBatch(poisonHandles, &e.buckets)
	}
	// Aborted handles go back first (they are retries), then the newly
	// spawned work — each as one batched insertion.
	e.requeueAll(requeue)
	e.requeueAll(spawnedIDs)
	for _, ctx := range ctxs[:n] {
		ctx.scrub()
	}
	e.addTotals(int64(stats.Launched), int64(stats.Committed),
		int64(stats.Aborted), int64(stats.Failed), int64(stats.Poisoned))
	for _, fn := range commitActions {
		fn()
	}
	if e.rec != nil {
		e.rec.roundDone()
	}
	return stats
}
