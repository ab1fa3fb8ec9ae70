package speculation

import (
	"context"
	"sync"

	"repro/internal/control"
)

// This file implements the barrier-free execution mode: up to
// MaxParallel participants, the Drive goroutine included, claim
// chunks of the work-set, run them, and settle them with no global round
// join, visiting the engine's mutex once per chunk. The controller's m is
// a resizable limit on attempts claimed and not yet settled, and the
// paper's Algorithm 1 recurrences are driven by a sliding window of
// recent commit/abort outcomes (a pseudo-round) instead of per-round
// statistics. It is Drive's ModeAsync: same Options, Sample and Result as
// the barrier drives (drive.go), over the same executor, work-set, locks,
// and failure taxonomy.
//
// With no barrier there is no serial walk to pick a window's winners, so
// an async attempt locks what it acquires (Ctx.locks) and the first to
// lock an item wins it. The sliding window is a *pseudo-round*: a
// committed task keeps its item locks, and its OnCommit actions are
// deferred, until the window boundary — what a round's claims and commit
// actions last until, without making any worker wait. This keeps the
// model's intra-round conflict semantics ("a task aborts iff it
// conflicts with a task that committed before it", in commit order
// rather than pick order) at window granularity, which is what makes the
// windowed conflict ratio statistically equivalent to the per-round
// ratio and lets the existing controllers run unchanged; like a round,
// a window always contains at least one commit. Commit actions run
// serially, in commit order, before the locks release — so a successful
// Acquire implies post-commit-action state, as a round's tasks see the
// previous round's. One async-specific caveat: a committed task's spawns
// enter the work-set when its chunk ends and may execute before the
// parent's commit actions run at the boundary; the async-enabled
// workloads ("cc", "spin", "stable") have no such dependence.

// DefaultMaxInFlight caps the in-flight limit. It matches the hybrid
// controller's default MMax, so the controller, not the cap, is normally
// the binding limit.
const DefaultMaxInFlight = 1024

// asyncWorker is what one worker owns between two visits to the engine:
// the chunk it claimed and everything running it produced. Nothing here
// is shared, so a chunk runs without touching a.mu.
type asyncWorker struct {
	chunk   []queued   // claimed entries, run in order
	back    []queued   // going to the work-set: losers and committed tasks' spawns
	st      RoundStats // the chunk's tallies; Launched is len(chunk)
	locks   []*Item    // committed tasks' items, still owned, held to the boundary
	actions []func()   // committed tasks' deferred commit actions, in commit order
}

// asyncRun is the engine state for one async drive. One mutex guards
// everything, the shared drive's result included; workers wait on cond
// for in-flight room plus work, and worker 0 for queued samples too.
type asyncRun struct {
	e       *Executor
	d       *drive
	budget  int
	workers int // participants asked for: worker 0 is the Drive goroutine, the rest pool helpers

	mu   sync.Mutex
	cond *sync.Cond // room and/or work may be available, or a sample is queued for worker 0

	// limit is the in-flight cap, resized at every window boundary, and
	// also how many outcomes (commits plus aborts; failures are not
	// contention and do not count) close a window, so a window aggregates
	// about as many outcomes as the round the controller was designed for.
	limit    int
	inflight int // attempts claimed and not yet settled into the window

	stopped bool // no new work may start
	parked0 bool // worker 0 waits on cond, so a queued sample must wake it

	commits int64      // commits so far, flushed or not
	win     RoundStats // tallies of the open window

	// Pseudo-round state: locks held and commit actions deferred by the
	// window's committed tasks, settled at the boundary (actions run in
	// commit order, then locks release).
	held    []*Item
	actions []func()

	// Flushed samples awaiting ordered delivery by worker 0, and the batch
	// it delivered last: two buffers, no allocation per window.
	queue, spare []Sample
}

// driveAsync is Drive's ModeAsync. It must not run concurrently with
// Round or another drive on the same executor; Add and the statistics
// accessors remain safe to call concurrently.
//
// The controller's m is an allocation — how many attempts may be claimed
// and unsettled at once — not a thread count: MaxParallel participants
// serve whatever m is, each claiming a chunk of it at a time. The drive
// is one dispatch on the process's helper pool, one index per
// participant, woken whatever the round backoff says: every worker should
// be live at once, or blocking operators would not overlap. A helper
// busy in another executor's dispatch is not waited for: the drive then
// runs on fewer participants, and still completes.
func (e *Executor) driveAsync(d *drive) {
	a := &asyncRun{
		e:       e,
		d:       d,
		budget:  e.retryBudget(),
		workers: poolSize(e.MaxParallel),
	}
	a.cond = sync.NewCond(&a.mu)
	a.setLimitLocked(d.ctrl.M())

	// A cancellation stops new claims immediately; claimed chunks run and
	// settle normally (their commits hold item locks that must be released
	// through the usual paths). A callback that fires late finds the run
	// stopped and does nothing.
	unwatch := context.AfterFunc(d.ctx, func() {
		a.mu.Lock()
		if !a.stopped {
			a.finishLocked(true)
		}
		a.mu.Unlock()
	})
	e.dispatch(e.MaxParallel, a.workers, a.worker, true) // returns once every claimed chunk settled
	unwatch()

	// Final partial window: round mode observes and reports the round a
	// stop let finish, so the async drive does the same with the window
	// its in-flight attempts settled into. Every settled attempt is then
	// in a sample, and a controller that outlives the drive (a preempted
	// job resumes with it) has seen them all. As at a barrier, a stop
	// that found the work-set drained canceled nothing.
	a.mu.Lock()
	d.res.Canceled = d.res.Canceled && e.Pending() > 0
	if a.win.Committed+a.win.Aborted > 0 {
		a.flushSampleLocked()
	}
	d.res.fold(a.win) // a failures-only tail
	a.deliverLocked()
	a.mu.Unlock()
}

// setLimitLocked resizes the in-flight limit, and with it the window,
// to the controller's request, clamped to [1, DefaultMaxInFlight].
// Callers hold a.mu.
func (a *asyncRun) setLimitLocked(m int) {
	m = control.Clamp(m, 1, DefaultMaxInFlight)
	if m > a.limit {
		// A raised limit makes room: every parked worker must recheck,
		// not just one.
		a.cond.Broadcast()
	}
	a.limit = m
}

// worker is participant i's loop, claim → run → complete, until the run
// stops or the work drains. It visits the engine once per chunk: the
// finished chunk is folded and the next one claimed under one hold of
// a.mu. Worker 0 is the goroutine that called Drive (a dispatch's caller
// runs index 0), and the one that delivers samples.
func (a *asyncRun) worker(i int) {
	var w asyncWorker
	c := ctxPool.Get().(*Ctx)
	defer ctxPool.Put(c) // scrubbed after its last attempt
	a.mu.Lock()
	for a.claimLocked(&w, i == 0) {
		a.mu.Unlock()
		a.runChunk(&w, c)
		a.mu.Lock()
		a.completeLocked(&w)
	}
	a.mu.Unlock()
}

// claimLocked blocks until the run stops (false) or it has drawn a chunk
// into w and counted it in flight, so claimed-but-unsettled never exceeds
// the limit; worker 0 (delivers) first hands any queued samples over. A
// chunk is ⌈limit / 4·workers⌉ entries, bounded by maxChunk and the room
// left: large enough that a.mu is taken a few times per window rather
// than per attempt, small enough that what a worker holds unsettled — its
// chunk's commits keep their locks until it next gets a.mu — stays a
// small part of the window (EXPERIMENTS.md has the sweep).
// With MaxParallel ≥ m it is one entry, i.e. one participant per unit of
// m, and blocking operators overlap m-fold. Drain detection: nothing in
// the work-set, nothing in flight that could requeue work, and no commit
// action left that could spawn some. Callers hold a.mu.
func (a *asyncRun) claimLocked(w *asyncWorker, delivers bool) bool {
	for !a.stopped {
		if delivers && len(a.queue) > 0 {
			a.deliverLocked()
			continue
		}
		if room := a.limit - a.inflight; room > 0 {
			chunk := (a.limit + 4*a.workers - 1) / (4 * a.workers)
			w.chunk = a.e.take(w.chunk, min(room, chunk, maxChunk))
			if n := len(w.chunk); n > 0 {
				a.inflight += n
				if n < room {
					// Room is left and there may be work for it: chain the
					// wakeup, so the one worker whose completion made the
					// room does not have to fill it alone.
					a.cond.Signal()
				}
				return true
			}
			if a.inflight == 0 {
				if len(a.actions) > 0 {
					// The open window's commit actions may spawn work:
					// close it, then look again.
					a.flushSampleLocked()
					continue
				}
				a.finishLocked(false)
				return false
			}
		}
		a.parked0 = a.parked0 || delivers
		a.cond.Wait()
		a.parked0 = a.parked0 && !delivers
	}
	return false
}

// finishLocked stops the run: parked workers are released. Claimed chunks
// still run and settle. Callers hold a.mu.
func (a *asyncRun) finishLocked(canceled bool) {
	a.stopped = true
	a.d.res.Canceled = a.d.res.Canceled || canceled
	a.cond.Broadcast()
}

// runChunk executes one attempt of every claimed entry on the worker's
// context and settles each through the shared failure taxonomy. What is
// async's own: with no walk to pick winners, an attempt locks what it
// acquires (Ctx.locks) and a held item fails it at once; a failed
// attempt releases its locks immediately, while a commit's stay held and
// its actions wait for the window boundary (see the file comment) — held
// under the attempt's own ID, so a later task of the same chunk loses to
// it like anyone else — and its spawns go back to the work-set with the
// chunk's losers, ahead of the boundary.
func (a *asyncRun) runChunk(w *asyncWorker, c *Ctx) {
	e := a.e
	n := int64(len(w.chunk))
	base := e.nextID.Add(n) - n
	for i, q := range w.chunk {
		c.locks, c.id = true, base+int64(i)
		err := runGuarded(q.t, c)
		if err != nil {
			c.release()
		}
		switch e.settle(q.h, err, a.budget, &w.st) {
		case verdictCommit:
			w.locks = append(w.locks, c.acquired...)
			w.actions = append(w.actions, c.onCommit...)
			w.back = e.admitSpawns(c, w.back, &w.st)
		case verdictAbort, verdictRetry:
			w.back = append(w.back, q)
		}
		c.scrub()
	}
	e.requeue(w.back...)
	e.addTotals(w.st)
	w.chunk = emptied(w.chunk)
	w.back = emptied(w.back)
}

// completeLocked folds w's finished chunk into the open window, closing
// it — and observing the controller — at window boundaries. Callers hold
// a.mu.
func (a *asyncRun) completeLocked(w *asyncWorker) {
	st := w.st
	w.st = RoundStats{}
	a.inflight -= st.Launched
	a.win.add(st)
	a.commits += int64(st.Committed)
	a.held = append(a.held, w.locks...)
	a.actions = append(a.actions, w.actions...)
	w.locks = emptied(w.locks)
	w.actions = emptied(w.actions)
	if a.stopped {
		return
	}
	if a.win.Committed+a.win.Aborted >= a.limit && a.win.Committed > 0 {
		// A window closes on a commit, never on aborts alone. A round
		// always commits something (the first task in commit order has
		// nobody to lose to); m straight aborts here mean the holder is
		// an attempt still in flight — done with its task, its chunk not
		// yet settled — and the losers, whose bodies can be a few hundred
		// nanoseconds, retried and lost again. Closing on them would feed
		// the controller thousands of zero-commit samples per millisecond
		// of the holder's wait.
		a.flushSampleLocked()
	}
	if a.d.capped(a.commits) {
		a.finishLocked(false)
	}
}

// flushSampleLocked closes the current window — the async form of the
// loop body in drive.step — which holds at least one outcome. It ends the
// pseudo-round: the window's deferred commit actions run serially in
// commit order, then the committed tasks' locks release; the actions may
// block on workload locks (never on a.mu — nothing re-enters the engine),
// so in-flight tasks keep executing meanwhile, exactly as round-mode
// tasks of the *next* round would after the barrier. Then the controller
// observes the window's conflict ratio, the in-flight limit resizes to the
// controller's new m, and the sample is queued for ordered delivery.
// Callers hold a.mu, which is also what makes the workers one driver as
// far as the controller is concerned.
func (a *asyncRun) flushSampleLocked() {
	for _, fn := range a.actions {
		fn()
	}
	a.actions = a.actions[:0]
	for _, it := range a.held {
		it.owner.Store(noOwner)
	}
	a.held = a.held[:0]
	// r = aborts / (commits + aborts): failures never count — an injected
	// panic is not contention (same exclusion as RoundStats.ConflictRatio),
	// and a quarantined task must not depress the windowed ratio either.
	r := float64(a.win.Aborted) / float64(a.win.Committed+a.win.Aborted)
	a.d.ctrl.Observe(r)
	a.setLimitLocked(a.d.ctrl.M())
	s := a.d.record(Sample{M: a.limit, R: r, InFlight: a.inflight}, a.win)
	a.win = RoundStats{}
	if a.d.opts.OnRound != nil {
		a.queue = append(a.queue, s)
		if a.parked0 {
			a.cond.Broadcast() // cond.Signal might pick another worker
		}
	}
}

// deliverLocked is worker 0's turn between chunks: it hands the queued
// samples, in order, to the subscriber outside a.mu, so a blocking
// callback holds back one participant, never the others or the
// controller. Samples still queued when the run stops, and the final
// partial window, are delivered by driveAsync after the dispatch, still
// on the Drive goroutine. Only a drive with a subscriber queues samples.
func (a *asyncRun) deliverLocked() {
	batch := a.queue
	a.queue = a.spare[:0]
	a.mu.Unlock()
	for _, s := range batch {
		a.d.opts.OnRound(s)
	}
	a.mu.Lock()
	a.spare = batch
}
