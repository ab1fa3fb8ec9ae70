package speculation

import (
	"context"
	"errors"
	"slices"
	"sync"

	"repro/internal/graph"
)

// Colored execution: the hybrid speculative→colored mode.
//
// The paper's controller *reacts* to conflicts — it tunes m so the
// measured abort ratio tracks ρ, but every conflict still costs an
// abort, a rollback, and the lock traffic that detected it. On
// workloads whose conflict structure is stable round over round, that
// is money left on the table: once the conflict graph is known, a
// proper coloring of it partitions the tasks into classes that are
// pairwise conflict-free *by construction*, and a class can run with no
// item locks, no undo logs, and no abort path at all.
//
// Drive's ModeColored phases:
//
//	declare — before the first step: if every pending task is Footprinted,
//	          build the conflict graph from what the tasks say they will
//	          acquire, color it and skip learning altogether.
//	learn   — otherwise, ordinary optimistic rounds (controller-governed);
//	          the executor feeds committed footprints to a
//	          ConflictRecorder.
//	color   — when the edge set has been quiet for StableRounds rounds,
//	          snapshot it to a CSR and color it (graph.ColorCSR).
//	execute — colored super-rounds: drain the work-set, group tasks by
//	          their key's color, and run whole classes barrier-to-
//	          barrier with lock-free contexts; commit actions run
//	          serially at each class barrier.
//
// Staleness: the coloring is only as good as the learned graph, so
// colored rounds are verified post-hoc. Two grades of trip exist:
//
//   - *soft* — the graph is incomplete but not contradicted: a pending
//     or spawned task whose key was never learned (new work, unknown
//     edges), or two live tasks sharing one key (the coloring cannot
//     separate them). The coloring is dropped but the recorder keeps
//     everything learned; the missing keys commit speculatively, extend
//     the graph, and a later (complete) snapshot is re-colored.
//   - *hard* — an observation contradicted the learned graph: a
//     committed task touched an item outside its learned footprint
//     (growth; a subset is fine), or an operator raised ErrConflict
//     inside a supposedly conflict-free class. The recorder is reset
//     and a fresh learning epoch starts.
//
// Fallback requeues the affected work untouched; since colored commits
// only ever ran tasks whose footprints were within the learned
// independent classes, no committed state is ever wrong — staleness
// costs throughput, never correctness. The speculative→colored
// transition additionally requires every pending task's key to be in
// the snapshot, so a coloring is never attempted on a knowingly
// incomplete graph.
//
// A declared graph is verified exactly like a learned one and falls
// back by the same two grades. Soft (new work the declarations did not
// cover): declare again from the now-pending set, once; a second soft
// trip learns. Hard (a commit acquired outside its declared footprint,
// or ErrConflict inside a class): the declarations lied — never declare
// again in this drive, reset the recorder, learn. Declaring is refused,
// and the drive learns, when a pending task is not Footprinted, two live
// tasks share a key, or an item exceeds the recorder's holder bound.
//
// Controller interaction: colored rounds never observe the controller — the
// controller's r̄ reflects speculative rounds only, so Algorithm 1
// resumes governing m the moment a fallback returns the executor to
// speculation (see control.Controller).

// staleness grades a colored round's verification outcome.
type staleness int

const (
	staleNone staleness = iota
	staleSoft           // graph incomplete: drop the coloring, keep learning
	staleHard           // graph contradicted: reset the recorder entirely
)

// coloredState holds the reusable buffers of the colored super-round so
// the steady state allocates nothing.
type coloredState struct {
	colors    []int32   // dense key index -> color
	handles   []int64   // super-round drain buffer
	keyIdx    []int32   // round index -> dense key index
	classes   [][]int32 // color -> round indices
	seen      []uint64  // epoch marks per dense key (duplicate detection)
	seenEpoch uint64
	outside   []bool // round index -> the commit acquired outside its footprint

	requeue  []int64
	spawnIDs []int64
	poison   []int64
	actions  []func()
}

// prepare sizes the state for a fresh coloring.
func (cs *coloredState) prepare(lg *LearnedGraph, numColors int) {
	for len(cs.classes) < numColors {
		cs.classes = append(cs.classes, nil)
	}
	cs.classes = cs.classes[:numColors]
	if len(cs.seen) < lg.NumKeys() {
		cs.seen = make([]uint64, lg.NumKeys())
		cs.seenEpoch = 0
	}
}

// driveColored is Drive's ModeColored: the shared round step while
// learning, colored super-rounds once a coloring exists, and the phase
// switches between them. The controller governs the learning rounds
// exactly as in round mode; colored super-rounds are invisible to it.
func (e *Executor) driveColored(d *drive) {
	rec := NewConflictRecorder(0, 0)
	e.rec = rec
	defer func() { e.rec = nil }()

	res := &d.res
	var cs coloredState
	var lg *LearnedGraph
	color := func() {
		cs.colors, res.Colors = graph.ColorCSR(lg.CSR(), cs.colors, e.MaxParallel)
		cs.prepare(lg, res.Colors)
		res.Colorings++
	}
	// declares is how many more times this drive will take the tasks' word
	// for their footprints: at the start, and once more after a soft trip.
	declares, declared := 2, false
	declare := func() {
		if declares > 0 {
			declares--
			lg = e.declare(&cs)
		}
		if declared = lg != nil; declared {
			color()
		} else {
			declares = 0
		}
	}
	if d.more(e.Pending()) {
		declare()
	}

	for d.more(e.Pending()) {
		if lg == nil {
			d.step(e)
			if rec.Degraded() {
				res.Degraded = true
			} else if rec.Stable(DefaultStableRounds) && e.Pending() > 0 {
				if !e.pendingCovered(rec, &cs) {
					// Quiet but incomplete: some pending task has never
					// committed, so its edges are unknown. Keep learning
					// until the recorder covers the whole work-set; only
					// then is a snapshot worth building.
					rec.Unsettle()
				} else if lg = rec.Snapshot(); lg != nil {
					color()
				}
			}
			continue
		}

		st, stale := e.coloredRound(d.ctx, lg, &cs)
		d.emit(Sample{
			Colored: true, M: st.Launched, R: st.ConflictRatio(),
			Colors: res.Colors, Fallback: stale != staleNone,
		}, st)
		if stale == staleNone {
			continue
		}
		res.Fallbacks++
		lg = nil
		switch {
		case stale == staleHard:
			declares, declared = 0, false
			rec.Reset()
		case declared:
			declare()
		default:
			rec.Unsettle()
		}
	}
}

// declare builds the conflict graph from the pending tasks' declared
// footprints, or returns nil when the drive has to learn it instead: a
// pending task is not Footprinted, two live tasks share a key, or the
// declarations exceed the recorder's bounds.
func (e *Executor) declare(cs *coloredState) *LearnedGraph {
	tasks := e.pendingTasks(cs)
	n := len(tasks)
	keys, fps, total := make([]int64, n), make([][]*Item, n), 0
	for i, t := range tasks {
		ft, ok := t.(Footprinted)
		if !ok {
			return nil
		}
		keys[i], fps[i] = ft.ConflictKey(), ft.Footprint()
		total += len(fps[i])
	}
	lg := &LearnedGraph{keys: slices.Clone(keys)}
	slices.Sort(lg.keys)
	if len(slices.Compact(lg.keys)) < n {
		return nil
	}
	hs := make([]holding, 0, total)
	for i, fp := range fps {
		k := lg.KeyIndex(keys[i])
		for _, it := range fp {
			hs = append(hs, holding{it.Seq, k})
		}
	}
	if !lg.build(hs, DefaultRecorderMaxItems, DefaultRecorderMaxKeysPerItem) {
		return nil
	}
	return lg
}

// pendingTasks resolves every pending task for inspection, draining the
// work-set and requeueing it as it was.
func (e *Executor) pendingTasks(cs *coloredState) []Task {
	cs.handles = e.drainPending(cs.handles[:0])
	e.scratch.grow(len(cs.handles))
	e.tasks.loadBatch(cs.handles, e.scratch.tasks, &e.buckets)
	e.requeueAll(cs.handles)
	return e.scratch.tasks
}

// pendingCovered reports whether every pending task is keyed and its
// key is known to the recorder with no key shared by two live tasks —
// the precondition for the speculative→colored transition, checked
// before a snapshot is built.
func (e *Executor) pendingCovered(rec *ConflictRecorder, cs *coloredState) bool {
	tasks := e.pendingTasks(cs)
	live := make(map[int64]struct{}, len(tasks))
	for _, t := range tasks {
		kt, keyed := t.(ConflictKeyed)
		if !keyed {
			return false
		}
		key := kt.ConflictKey()
		if _, dup := live[key]; dup || !rec.Knows(key) {
			return false
		}
		live[key] = struct{}{}
	}
	return true
}

// drainPending moves every pending handle into buf (appending, so the
// caller's capacity is reused) — the colored super-round takes the
// whole work-set, not a controller-sized batch.
func (e *Executor) drainPending(buf []int64) []int64 {
	if e.ws != nil {
		for {
			k := e.ws.Len()
			if k == 0 {
				return buf
			}
			hs := e.ws.Take(k)
			if len(hs) == 0 {
				return buf
			}
			buf = append(buf, hs...)
		}
	}
	e.mu.Lock()
	buf = append(buf, e.pending...)
	e.pending = e.pending[:0]
	e.mu.Unlock()
	return buf
}

// coloredRound executes one colored super-round: drain, group by color,
// run each class barrier-to-barrier with lock-free contexts, verify
// footprints, and settle. Returns the round's stats plus the staleness
// grade (non-none means the caller must fall back to speculation; all
// unfinished work has been requeued). A super-round can be the whole
// job, so ctx is observed at every class barrier: once it has ended the
// classes not yet launched are requeued untouched.
func (e *Executor) coloredRound(ctx context.Context, lg *LearnedGraph, cs *coloredState) (RoundStats, staleness) {
	cs.handles = e.drainPending(cs.handles[:0])
	n := len(cs.handles)
	if n == 0 {
		return RoundStats{}, staleNone
	}
	e.scratch.grow(n)
	tasks, ctxs, errs := e.scratch.tasks, e.scratch.ctxs, e.scratch.errs
	e.tasks.loadBatch(cs.handles, tasks, &e.buckets)

	// Group the batch into color classes, checking the preconditions the
	// coloring relies on: every task keyed, every key learned, at most
	// one live task per key.
	if cap(cs.keyIdx) < n {
		cs.keyIdx, cs.outside = make([]int32, n), make([]bool, n)
	} else {
		cs.keyIdx, cs.outside = cs.keyIdx[:n], cs.outside[:n]
	}
	for i := range cs.classes {
		cs.classes[i] = cs.classes[i][:0]
	}
	cs.seenEpoch++
	for i := 0; i < n; i++ {
		kt, ok := tasks[i].(ConflictKeyed)
		if !ok {
			e.requeueAll(cs.handles)
			return RoundStats{}, staleSoft
		}
		idx := lg.KeyIndex(kt.ConflictKey())
		if idx < 0 || cs.seen[idx] == cs.seenEpoch {
			e.requeueAll(cs.handles)
			return RoundStats{}, staleSoft
		}
		cs.seen[idx] = cs.seenEpoch
		cs.keyIdx[i] = idx
		c := cs.colors[idx]
		cs.classes[c] = append(cs.classes[c], int32(i))
	}

	stats := RoundStats{}
	stale := staleNone
	budget := e.retryBudget()
	wrap := e.WrapTask
	idBase := e.nextID.Add(int64(n)) - int64(n)
	var pool *workerPool
	if e.MaxParallel > 0 {
		pool = e.ensurePool(e.MaxParallel)
	}
	cs.requeue = cs.requeue[:0]
	cs.spawnIDs = cs.spawnIDs[:0]
	cs.poison = cs.poison[:0]

	for _, class := range cs.classes {
		if len(class) == 0 {
			continue
		}
		if stats.Launched > 0 && ctx.Err() != nil {
			for _, i := range class {
				cs.requeue = append(cs.requeue, cs.handles[i])
			}
			continue
		}
		class := class
		run := func(j int) {
			i := class[j]
			c := ctxs[i]
			c.id = idBase + int64(i)
			c.colored = true
			err := runGuarded(tasks[i], c)
			if err != nil {
				// Colored contexts hold no locks; rollback runs the undo
				// log (a failing task may have mutated before erroring)
				// and release is a no-op on unowned items.
				c.rollback()
				c.release()
			} else {
				// Post-hoc staleness check, made by the worker that ran the
				// task so the serial barrier only reads the verdict: every
				// acquired item must lie in the key's footprint. A subset
				// is fine (the graph is then conservative); anything new
				// means edges the graph lacks may exist.
				cs.outside[i] = !lg.covers(cs.keyIdx[i], c.acquired)
			}
			errs[i] = err
		}
		if pool != nil {
			pool.dispatch(len(class), run)
		} else {
			var wg sync.WaitGroup
			wg.Add(len(class))
			for j := range class {
				go func(j int) {
					defer wg.Done()
					run(j)
				}(j)
			}
			wg.Wait()
		}

		// Class barrier: verify footprints, settle outcomes, and run this
		// class's commit actions before the next class launches — later
		// classes may depend on them (structural mutations are deferred
		// here by the cautious-operator contract).
		e.committed = e.committed[:0]
		cs.actions = cs.actions[:0]
		for _, i := range class {
			stats.Launched++
			c := ctxs[i]
			if err := errs[i]; err != nil {
				if errors.Is(err, ErrConflict) {
					// Operator-level conflict inside a supposedly
					// conflict-free class: the learned graph lied.
					stats.Aborted++
					stale = staleHard
					cs.requeue = append(cs.requeue, cs.handles[i])
					continue
				}
				stats.Failed++
				h := cs.handles[i]
				if _, poisoned := e.noteFailure(h, budget, err.Error()); poisoned {
					stats.Poisoned++
					cs.poison = append(cs.poison, h)
					continue
				}
				cs.requeue = append(cs.requeue, h)
				continue
			}
			if cs.outside[i] {
				// Finish this round, then relearn.
				stale = staleHard
			}
			stats.Committed++
			e.clearFailure(cs.handles[i])
			e.committed = append(e.committed, cs.handles[i])
			for _, t := range c.spawned {
				if wrap != nil {
					t = wrap(t)
				}
				id := e.nextID.Add(1) - 1
				e.tasks.store(id, t)
				cs.spawnIDs = append(cs.spawnIDs, id)
				stats.Spawned++
				// A spawn with an unknown key can't be colored next
				// round; trip a soft fallback now instead of discovering
				// it at the next grouping pass. (Soft never downgrades a
				// hard trip.)
				if kt, ok := t.(ConflictKeyed); !ok || lg.KeyIndex(kt.ConflictKey()) < 0 {
					if stale == staleNone {
						stale = staleSoft
					}
				}
			}
			cs.actions = append(cs.actions, c.onCommit...)
		}
		for _, i := range class {
			ctxs[i].scrub()
		}
		e.tasks.deleteBatch(e.committed, &e.buckets)
		for _, fn := range cs.actions {
			fn()
		}
	}

	if len(cs.poison) > 0 {
		e.tasks.deleteBatch(cs.poison, &e.buckets)
	}
	e.requeueAll(cs.requeue)
	e.requeueAll(cs.spawnIDs)
	e.addTotals(int64(stats.Launched), int64(stats.Committed),
		int64(stats.Aborted), int64(stats.Failed), int64(stats.Poisoned))
	return stats, stale
}
