package speculation

import (
	"errors"
	"runtime"
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
//	learn   — ordinary optimistic rounds (controller-governed); the
//	          executor feeds committed footprints to a ConflictRecorder.
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
// switch between them. The controller governs the learning rounds
// exactly as in round mode; colored super-rounds are invisible to it.
func (e *Executor) driveColored(d *drive) {
	rec := NewConflictRecorder(0, 0)
	e.rec = rec
	defer func() { e.rec = nil }()

	res := &d.res
	var cs coloredState
	var lg *LearnedGraph

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
					workers := e.MaxParallel
					if workers <= 0 {
						workers = runtime.GOMAXPROCS(0)
					}
					cs.colors, res.Colors = graph.ColorCSR(lg.CSR(), cs.colors, workers)
					cs.prepare(lg, res.Colors)
					res.Colorings++
				}
			}
			continue
		}

		st, stale := e.coloredRound(lg, &cs)
		d.emit(Sample{
			Colored: true, M: st.Launched, R: st.ConflictRatio(),
			Colors: res.Colors, Fallback: stale != staleNone,
		}, st)
		if stale != staleNone {
			res.Fallbacks++
			lg = nil
			if stale == staleHard {
				rec.Reset()
			} else {
				rec.Unsettle()
			}
		}
	}
}

// pendingCovered reports whether every pending task is keyed and its
// key is known to the recorder with no key shared by two live tasks —
// the precondition for the speculative→colored transition, checked
// before a snapshot is built. The pending set is inspected by draining
// and requeueing it.
func (e *Executor) pendingCovered(rec *ConflictRecorder, cs *coloredState) bool {
	cs.handles = e.drainPending(cs.handles[:0])
	n := len(cs.handles)
	if n == 0 {
		return true
	}
	e.scratch.grow(n)
	e.tasks.loadBatch(cs.handles, e.scratch.tasks, &e.buckets)
	live := make(map[int64]struct{}, n)
	ok := true
	for i := 0; i < n && ok; i++ {
		kt, keyed := e.scratch.tasks[i].(ConflictKeyed)
		if !keyed {
			ok = false
			break
		}
		key := kt.ConflictKey()
		if _, dup := live[key]; dup || !rec.Knows(key) {
			ok = false
			break
		}
		live[key] = struct{}{}
	}
	e.requeueAll(cs.handles)
	return ok
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
// unfinished work has been requeued).
func (e *Executor) coloredRound(lg *LearnedGraph, cs *coloredState) (RoundStats, staleness) {
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
		cs.keyIdx = make([]int32, n)
	} else {
		cs.keyIdx = cs.keyIdx[:n]
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
		class := class
		run := func(j int) {
			i := class[j]
			ctx := ctxs[i]
			ctx.id = idBase + int64(i)
			ctx.colored = true
			err := runGuarded(tasks[i], ctx)
			if err != nil {
				// Colored contexts hold no locks; rollback runs the undo
				// log (a failing task may have mutated before erroring)
				// and release is a no-op on unowned items.
				ctx.rollback()
				ctx.release()
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
			ctx := ctxs[i]
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
			// Post-hoc staleness check: every acquired item must lie in
			// the key's learned footprint. A subset is fine (the graph is
			// then conservative); anything new means edges we never
			// learned may exist, so finish this round and relearn.
			ki := cs.keyIdx[i]
			for _, it := range ctx.acquired {
				if !lg.InFootprint(ki, it.Seq) {
					stale = staleHard
					break
				}
			}
			stats.Committed++
			e.clearFailure(cs.handles[i])
			e.committed = append(e.committed, cs.handles[i])
			for _, t := range ctx.spawned {
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
			cs.actions = append(cs.actions, ctx.onCommit...)
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
