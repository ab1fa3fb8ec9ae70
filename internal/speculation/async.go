package speculation

import (
	"context"
	"sync"

	"repro/internal/control"
)

// This file implements the barrier-free execution mode: persistent
// workers continuously pull, execute, and settle tasks with no global
// round join. The controller's m becomes a resizable semaphore on
// in-flight tasks, and the paper's Algorithm 1 recurrences are driven
// by a sliding window of recent commit/abort outcomes (a pseudo-round)
// instead of per-round statistics. It is Drive's ModeAsync: same
// Options, Sample and Result as the barrier drives (drive.go), over the
// same executor, work-set, locks, and failure taxonomy.
//
// The sliding window is a *pseudo-round*: a committed task keeps its
// item locks, and its OnCommit actions are deferred, until the window
// boundary — exactly what the round barrier does for a round, without
// making any worker wait. This preserves the model's intra-round
// conflict semantics ("a task aborts iff it conflicts with a task that
// committed before it") at window granularity, which is what makes the
// windowed conflict ratio statistically equivalent to the per-round
// ratio and lets the existing controllers run unchanged; like a round,
// a window always contains at least one commit. Commit
// actions run serially, in commit order, before the locks release —
// so a successful Acquire still implies post-commit-action state, as
// in round mode. One async-specific caveat: a committed task's spawns
// enter the work-set immediately and may execute before the parent's
// commit actions run at the boundary; the async-enabled workloads
// ("cc", "spin") have no such dependence.

// DefaultMaxInFlight caps the in-flight semaphore. It matches the hybrid
// controller's default MMax, so the controller, not the cap, is normally
// the binding limit.
const DefaultMaxInFlight = 1024

// asyncTakeBatch bounds how many entries a worker pulls from the
// work-set per refill, amortizing work-set locking without letting one
// worker hoard the queue.
const asyncTakeBatch = 8

// asyncOutcome is one settled attempt, carried from the worker's
// execution to the engine's window accounting.
type asyncOutcome struct {
	st      RoundStats // the attempt's tallies: Launched is 1
	locks   []*Item    // committed task's items, held to the boundary
	actions []func()   // committed task's deferred commit actions
}

// asyncRun is the engine state for one async drive. One mutex guards
// everything, the shared drive's result included; two conds separate the
// waiters: workers wait on cond for a semaphore slot plus work, the
// sample-delivery loop waits on sampleCond.
type asyncRun struct {
	e      *Executor
	d      *drive
	budget int

	mu         sync.Mutex
	cond       *sync.Cond // workers: slot and/or work may be available
	sampleCond *sync.Cond // observer: samples queued or run stopped

	est      *control.WindowedEstimator
	adaptive bool // window tracks the in-flight limit

	limit    int      // current in-flight cap (resizable semaphore)
	inflight int      // attempts currently executing
	workers  int      // worker goroutines spawned (grows to limit)
	buf      []queued // entries pulled from the work-set, not yet started

	stopped bool // no new work may start

	commits int64      // commits so far, flushed or not
	win     RoundStats // tallies of the open window

	// Pseudo-round state: locks held and commit actions deferred by the
	// window's committed tasks, settled at the boundary (actions run in
	// commit order, then locks release).
	held    []*Item
	actions []func()

	queue []Sample // flushed samples awaiting ordered delivery

	wg sync.WaitGroup
}

// driveAsync is Drive's ModeAsync. It must not run concurrently with
// Round or another drive on the same executor (the round scratch and
// selection state are single-driver, like Round itself); Add and the
// statistics accessors remain safe to call concurrently.
//
// MaxParallel is ignored: concurrency is the controller's in-flight
// limit, served by lazily spawned workers (one per unit of limit).
func (e *Executor) driveAsync(d *drive) {
	a := &asyncRun{
		e:        e,
		d:        d,
		budget:   e.retryBudget(),
		adaptive: d.opts.Window <= 0,
		est:      control.NewWindowedEstimator(d.opts.Window),
	}
	a.cond = sync.NewCond(&a.mu)
	a.sampleCond = sync.NewCond(&a.mu)

	a.mu.Lock()
	a.setLimitLocked(d.ctrl.M())
	a.mu.Unlock()

	// A cancellation stops new work immediately; in-flight attempts
	// settle normally (they hold item locks that must be released through
	// the usual paths). A callback that fires late finds the run stopped
	// and does nothing.
	unwatch := context.AfterFunc(d.ctx, func() {
		a.mu.Lock()
		if !a.stopped {
			a.finishLocked(true)
		}
		a.mu.Unlock()
	})
	a.deliver() // returns once stopped and the sample queue is drained
	a.wg.Wait() // workers have settled every in-flight attempt
	unwatch()

	// Final partial window: round mode observes its last (partial)
	// round, so the async drive does too — unless canceled, where the
	// tail is an artifact of the stop, not of the workload; its outcomes
	// still count in the result. As at a barrier, a stop that found the
	// work-set drained canceled nothing.
	a.mu.Lock()
	d.res.Canceled = d.res.Canceled && e.Pending() > 0
	if !d.res.Canceled && a.est.Samples() > 0 {
		a.flushSampleLocked()
	}
	d.res.fold(a.win)
	// Commits that landed after a stop (or in a canceled run's final
	// partial window) must still settle: their effects are committed,
	// only their actions and lock releases were deferred.
	a.settleWindowLocked()
	tail := a.queue
	a.queue = nil
	a.mu.Unlock()
	a.publish(tail)
}

// setLimitLocked resizes the in-flight semaphore to the controller's
// request, clamped to [1, DefaultMaxInFlight], resizes the adaptive
// window, and lazily spawns workers up to the new limit. Callers hold
// a.mu.
func (a *asyncRun) setLimitLocked(m int) {
	m = control.Clamp(m, 1, DefaultMaxInFlight)
	grew := m > a.limit
	a.limit = m
	if a.adaptive {
		a.est.SetWindow(m)
	}
	for a.workers < a.limit {
		a.workers++
		a.wg.Add(1)
		go a.worker()
	}
	if grew {
		// Raised limit frees semaphore slots: every parked worker must
		// recheck, not just one.
		a.cond.Broadcast()
	}
}

// worker continuously claims a semaphore slot plus a work-set entry and
// executes it. Workers exit when the run stops or the work drains.
func (a *asyncRun) worker() {
	defer a.wg.Done()
	for {
		q, ok := a.next()
		if !ok {
			return
		}
		a.runTask(q)
	}
}

// next blocks until the run stops (ok=false) or a semaphore slot and an
// entry are both available. Drain detection: nothing buffered,
// nothing in the work-set, nothing in flight that could requeue work.
func (a *asyncRun) next() (queued, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if a.stopped {
			return queued{}, false
		}
		if a.inflight < a.limit {
			if len(a.buf) == 0 {
				want := a.limit - a.inflight
				if want > asyncTakeBatch {
					want = asyncTakeBatch
				}
				a.buf = a.e.take(a.buf, want)
			}
			if last := len(a.buf) - 1; last >= 0 {
				q := a.buf[last]
				a.buf[last] = queued{}
				a.buf = a.buf[:last]
				a.inflight++
				if len(a.buf) > 0 && a.inflight < a.limit {
					// More buffered work and a free slot: chain the wakeup
					// so one completion signal fans out to all the work it
					// uncovered.
					a.cond.Signal()
				}
				return q, true
			}
			if a.inflight == 0 {
				a.finishLocked(false)
				return queued{}, false
			}
		}
		a.cond.Wait()
	}
}

// finishLocked stops the run: parked workers and the delivery loop are
// released, and claimed-but-unstarted entries go back to the work-set
// so the executor's pending state is consistent. Callers hold a.mu.
func (a *asyncRun) finishLocked(canceled bool) {
	a.stopped = true
	a.d.res.Canceled = a.d.res.Canceled || canceled
	a.e.requeue(a.buf...)
	a.buf = nil
	a.cond.Broadcast()
	a.sampleCond.Broadcast()
}

// runTask executes one attempt of q and settles it through the shared
// failure taxonomy; what is async's own is where a commit's locks and
// actions go, and that its spawns enter the work-set at once.
func (a *asyncRun) runTask(q queued) {
	e := a.e
	ctx := ctxPool.Get().(*Ctx)
	ctx.id = e.nextID.Add(1) - 1
	err := attempt(q.t, ctx)
	var out asyncOutcome
	switch e.settle(q, err, a.budget, &out.st) {
	case verdictCommit:
		// The item locks stay held and the commit actions wait for the
		// window boundary (see the file comment). The lock and action
		// slices are copied out so the Ctx can be scrubbed and pooled.
		if len(ctx.acquired) > 0 {
			out.locks = append([]*Item(nil), ctx.acquired...)
			ctx.acquired = ctx.acquired[:0]
		}
		if len(ctx.onCommit) > 0 {
			out.actions = append([]func(){}, ctx.onCommit...)
		}
		e.requeue(e.admitSpawns(ctx, nil, &out.st)...)
	case verdictAbort, verdictRetry:
		e.requeue(q)
	}
	e.addTotals(out.st)
	ctx.scrub()
	ctxPool.Put(ctx)
	a.complete(out)
}

// complete settles one attempt's outcome into the open window,
// closing it — and observing the controller — at window boundaries.
func (a *asyncRun) complete(out asyncOutcome) {
	a.mu.Lock()
	a.inflight--
	a.win.add(out.st)
	// Failures never reach the estimator: an injected panic is not
	// contention (same exclusion as RoundStats.ConflictRatio), and a
	// quarantined task must not depress the windowed ratio either.
	switch {
	case out.st.Committed > 0:
		a.commits++
		a.held = append(a.held, out.locks...)
		a.actions = append(a.actions, out.actions...)
		a.est.ObserveCommit()
	case out.st.Aborted > 0:
		a.est.ObserveAbort()
	}
	if !a.stopped {
		if a.est.Ready() && a.win.Committed > 0 {
			// A window closes on a commit, never on aborts alone. A round
			// always commits something (the first task in commit order has
			// nobody to lose to); m straight aborts here mean the holder is
			// an attempt still in flight — typically done with its task
			// and queued on a.mu to settle — and the losers, whose bodies
			// can be a few hundred nanoseconds, retried and lost again.
			// Closing on them would feed the controller thousands of
			// zero-commit samples per millisecond of the holder's wait.
			a.flushSampleLocked()
		}
		if a.d.capped(a.commits) {
			a.finishLocked(false)
		}
	}
	a.cond.Signal()
	a.mu.Unlock()
}

// settleWindowLocked ends the pseudo-round: the window's deferred
// commit actions run serially in commit order, then the committed
// tasks' locks release. Callers hold a.mu; the actions may block on
// workload locks (never on a.mu — nothing re-enters the engine), so
// in-flight tasks keep executing meanwhile, exactly as round-mode
// tasks of the *next* round would after the barrier.
func (a *asyncRun) settleWindowLocked() {
	for _, fn := range a.actions {
		fn()
	}
	a.actions = a.actions[:0]
	for _, it := range a.held {
		it.owner.Store(noOwner)
	}
	a.held = a.held[:0]
}

// flushSampleLocked closes the current window — the async form of the
// loop body in drive.step: deferred commits settle, the controller
// observes the window's conflict ratio, the semaphore resizes to the
// controller's new m, and the sample is queued for ordered delivery.
// Callers hold a.mu, which is also what makes the workers one driver as
// far as the controller is concerned.
func (a *asyncRun) flushSampleLocked() {
	a.settleWindowLocked()
	ws := a.est.Flush()
	a.d.ctrl.Observe(ws.R)
	a.setLimitLocked(a.d.ctrl.M())
	s := a.d.record(Sample{M: a.limit, R: ws.R, InFlight: a.inflight}, a.win)
	a.win = RoundStats{}
	a.queue = append(a.queue, s)
	a.sampleCond.Signal()
}

// deliver streams queued samples, in order, to the subscriber from the
// Drive goroutine. Returns when the run has stopped and the queue is
// empty; any sample flushed after that (the final partial window) is
// published by driveAsync itself.
func (a *asyncRun) deliver() {
	for {
		a.mu.Lock()
		for len(a.queue) == 0 && !a.stopped {
			a.sampleCond.Wait()
		}
		batch := a.queue
		a.queue = nil
		stopped := a.stopped
		a.mu.Unlock()
		a.publish(batch)
		if stopped && len(batch) == 0 {
			return
		}
	}
}

// publish hands a batch of recorded samples to the subscriber.
func (a *asyncRun) publish(batch []Sample) {
	if fn := a.d.opts.OnRound; fn != nil {
		for _, s := range batch {
			fn(s)
		}
	}
}
