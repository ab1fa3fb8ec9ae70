package speculation

import (
	"context"
	"slices"

	"repro/internal/graph"
)

// Colored execution: declare-or-round.
//
// The paper's controller *reacts* to conflicts — it tunes m so the
// measured abort ratio tracks ρ, but every conflict still costs an
// abort. When the tasks can say up front which items they will touch,
// the conflict graph is known before anything runs: a proper coloring of
// it partitions the tasks into classes that are pairwise conflict-free as
// declared, and running the classes one after another needs no
// controller and, while the declarations hold, costs no abort.
//
// Drive's ModeColored:
//
//	declare — if every pending task is Footprinted, build the conflict
//	          graph from what the tasks say they will acquire and color
//	          it (graph.ColorCSR).
//	execute — colored super-rounds: drain the work-set, group tasks by
//	          their key's color, and run each class as one round of the
//	          round engine (runBatch): its tasks record what they
//	          acquire, the walk commits the greedy MIS of the class, and
//	          the winners' commit actions run at the class barrier,
//	          before the next class launches.
//	round   — otherwise, and after the declarations fail, ordinary
//	          optimistic rounds under the controller, exactly as in
//	          ModeRound. The paper's conflict graph is dynamic (§2); a
//	          work-set that does not declare is not colored.
//
// Declaring is refused when a pending task is not Footprinted, two live
// tasks share a key, or an item exceeds the declare bounds.
//
// Staleness: the coloring is only a schedule, so what a class commits is
// decided by its walk, exactly as in a round; the declarations only pick
// the classes. Two grades of trip exist:
//
//   - *soft* — the graph is incomplete but not contradicted: a task in
//     the work-set whose key was not declared (new work, found by a scan
//     after the super-round or at the next grouping pass), or two live
//     tasks sharing one key (the coloring cannot separate them). The
//     drive declares again from the now-pending set, once; a second
//     soft trip finishes the drive in rounds.
//   - *hard* — the declarations lied in a way that matters: a class's
//     walk aborted a task (two tasks of the class acquired one item), or
//     an operator raised ErrConflict. The drive never declares again and
//     finishes in rounds.
//
// A task that acquires an item it did not declare, but that no other
// task of its class acquires, commits and trips nothing: the class's
// committed set is conflict-free either way, because the walk, not the
// coloring, decides it. Fallback requeues the affected work untouched,
// so staleness costs throughput, never a conflicting commit.
//
// Controller interaction: colored rounds never observe the controller — the
// controller's r̄ reflects speculative rounds only, so Algorithm 1
// resumes governing m the moment a fallback returns the executor to
// speculation (see control.Controller).

// staleness grades a colored round's verification outcome.
type staleness int

const (
	staleNone staleness = iota
	staleSoft           // graph incomplete: declare again, once
	staleHard           // graph contradicted: finish in rounds
)

// coloredState holds the reusable buffers of the colored super-round so
// the steady state allocates nothing.
type coloredState struct {
	colors    []int32   // dense key index -> color
	batch     []queued  // the super-round's entries: the whole work-set
	classes   [][]int32 // color -> super-round indices
	seen      []uint64  // epoch marks per dense key (duplicate detection)
	seenEpoch uint64
}

// prepare sizes the state for a fresh coloring.
func (cs *coloredState) prepare(cg *ConflictGraph, numColors int) {
	for len(cs.classes) < numColors {
		cs.classes = append(cs.classes, nil)
	}
	cs.classes = cs.classes[:numColors]
	if len(cs.seen) < cg.NumKeys() {
		cs.seen = make([]uint64, cg.NumKeys())
		cs.seenEpoch = 0
	}
}

// driveColored is Drive's ModeColored: colored super-rounds while the
// declarations hold, the shared round step once they do not. The tasks'
// word for their footprints is taken at the start and once more after a
// soft trip; a refusal, a hard trip or a second soft trip finishes the
// drive in rounds, which the controller governs exactly as in round
// mode. Colored super-rounds are invisible to it.
func (e *Executor) driveColored(d *drive) {
	res := &d.res
	var cs coloredState
	for declares := 2; declares > 0 && d.more(e.Pending()); declares-- {
		cg := e.declare(&cs)
		if cg == nil {
			break
		}
		cs.colors, res.Colors = graph.ColorCSR(cg.CSR(), cs.colors)
		cs.prepare(cg, res.Colors)
		res.Colorings++

		stale := staleNone
		for stale == staleNone && d.more(e.Pending()) {
			var st RoundStats
			st, stale = e.coloredRound(d.ctx, cg, &cs)
			d.emit(Sample{
				Colored: true, M: st.Launched, R: st.ConflictRatio(),
				Colors: res.Colors, Fallback: stale != staleNone,
			}, st)
		}
		if stale == staleNone {
			return // drained or stopped
		}
		res.Fallbacks++
		if stale == staleHard {
			break
		}
	}
	for d.more(e.Pending()) {
		d.step(e)
	}
}

// declare builds the conflict graph from the pending tasks' declared
// footprints, or returns nil when the drive has to run in rounds
// instead: a pending task is not Footprinted, two live tasks share a
// key, or the declarations exceed the declare bounds.
func (e *Executor) declare(cs *coloredState) *ConflictGraph {
	e.mu.Lock()
	cs.batch = append(cs.batch[:0], e.pending...) // inspected, left queued
	e.mu.Unlock()
	batch, n := cs.batch, len(cs.batch)
	defer clear(batch)
	keys := make([]int64, n)
	for i, q := range batch {
		ft, ok := q.t.(Footprinted)
		if !ok {
			return nil
		}
		keys[i] = ft.ConflictKey()
	}
	cg := &ConflictGraph{keys: slices.Clone(keys)}
	slices.Sort(cg.keys)
	if len(slices.Compact(cg.keys)) < n {
		return nil
	}
	fps := make([][]*Item, n)
	for i, q := range batch {
		fps[cg.KeyIndex(keys[i])] = q.t.(Footprinted).Footprint()
	}
	if !cg.build(fps) {
		return nil
	}
	return cg
}

// takeAll moves the whole work-set, in queue order, into buf[:0] — the
// colored super-round runs everything pending, not a controller-sized
// batch.
func (e *Executor) takeAll(buf []queued) []queued {
	e.mu.Lock()
	buf = append(buf[:0], e.pending...)
	e.pending = emptied(e.pending)
	e.mu.Unlock()
	return buf
}

// coloredRound executes one colored super-round: drain, group by color,
// and run each class as a round, barrier to barrier. Returns the
// super-round's stats plus the staleness grade (non-none means the caller
// must fall back to speculation; all unfinished work has been requeued).
// A super-round can be the whole job, so ctx is observed at every class
// barrier: once it has ended the classes not yet launched are requeued
// untouched.
func (e *Executor) coloredRound(ctx context.Context, cg *ConflictGraph, cs *coloredState) (RoundStats, staleness) {
	cs.batch = e.takeAll(cs.batch)
	batch := cs.batch
	if len(batch) == 0 {
		return RoundStats{}, staleNone
	}
	defer clear(batch)

	// Group the batch into color classes, checking the preconditions the
	// coloring relies on: every task Footprinted, every key declared, at
	// most one live task per key.
	for i := range cs.classes {
		cs.classes[i] = cs.classes[i][:0]
	}
	cs.seenEpoch++
	for i, q := range batch {
		idx := cg.place(q.t)
		if idx < 0 || cs.seen[idx] == cs.seenEpoch {
			e.requeue(batch...)
			return RoundStats{}, staleSoft
		}
		cs.seen[idx] = cs.seenEpoch
		c := cs.colors[idx]
		cs.classes[c] = append(cs.classes[c], int32(i))
	}

	var stats RoundStats
	stale := staleNone
	s := &e.scratch
	for _, class := range cs.classes {
		for _, i := range class {
			s.batch = append(s.batch, batch[i])
		}
		if stats.Launched > 0 && ctx.Err() != nil {
			e.requeue(s.batch...)
			s.batch = emptied(s.batch)
			continue
		}
		// The class barrier: runBatch runs this class's commit actions
		// before the next class launches — later classes may depend on
		// them (structural mutations are deferred here by the
		// cautious-operator contract).
		st := e.runBatch()
		if st.Aborted > 0 {
			// A walk abort (two tasks of the class shared an item) or an
			// operator's ErrConflict: the declarations lied. Finish this
			// super-round, then run in rounds.
			stale = staleHard
		}
		stats.add(st)
	}
	if stale == staleNone && e.undeclaredPending(cg) {
		// New work the coloring cannot place (a spawn with an undeclared
		// key): trip a soft fallback now instead of discovering it at the
		// next grouping pass.
		stale = staleSoft
	}
	return stats, stale
}

// undeclaredPending reports whether the work-set holds a task cg cannot
// place.
func (e *Executor) undeclaredPending(cg *ConflictGraph) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, q := range e.pending {
		if cg.place(q.t) < 0 {
			return true
		}
	}
	return false
}
