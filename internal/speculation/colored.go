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
// abort, a rollback, and the lock traffic that detected it. When the
// tasks can say up front which items they will touch, the conflict
// graph is known before anything runs: a proper coloring of it
// partitions the tasks into classes that are pairwise conflict-free *by
// construction*, and a class can run with no item locks, no undo logs,
// and no abort path at all.
//
// Drive's ModeColored:
//
//	declare — if every pending task is Footprinted, build the conflict
//	          graph from what the tasks say they will acquire and color
//	          it (graph.ColorCSR).
//	execute — colored super-rounds: drain the work-set, group tasks by
//	          their key's color, and run whole classes barrier-to-
//	          barrier with lock-free contexts; commit actions run
//	          serially at each class barrier.
//	round   — otherwise, and after the declarations fail, ordinary
//	          optimistic rounds under the controller, exactly as in
//	          ModeRound. The paper's conflict graph is dynamic (§2); a
//	          work-set that does not declare is not colored.
//
// Declaring is refused when a pending task is not Footprinted, two live
// tasks share a key, or an item exceeds the declare bounds.
//
// Staleness: the coloring is only as good as the declarations, so
// colored rounds are verified post-hoc. Two grades of trip exist:
//
//   - *soft* — the graph is incomplete but not contradicted: a pending
//     or spawned task whose key was not declared (new work), or two
//     live tasks sharing one key (the coloring cannot separate them).
//     The drive declares again from the now-pending set, once; a second
//     soft trip finishes the drive in rounds.
//   - *hard* — the declarations lied: a committed task acquired an item
//     outside its declared footprint (a subset is fine), or an operator
//     raised ErrConflict inside a supposedly conflict-free class. The
//     drive never declares again and finishes in rounds.
//
// Fallback requeues the affected work untouched; since colored commits
// only ever ran tasks whose footprints were within the declared
// independent classes, no committed state is ever wrong — staleness
// costs throughput, never correctness.
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
	keyIdx    []int32   // round index -> dense key index
	classes   [][]int32 // color -> round indices
	seen      []uint64  // epoch marks per dense key (duplicate detection)
	seenEpoch uint64
	outside   []bool // round index -> the commit acquired outside its footprint
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
		cs.colors, res.Colors = graph.ColorCSR(cg.CSR(), cs.colors, e.MaxParallel)
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
	keys, fps, total := make([]int64, n), make([][]*Item, n), 0
	for i, q := range batch {
		ft, ok := q.t.(Footprinted)
		if !ok {
			return nil
		}
		keys[i], fps[i] = ft.ConflictKey(), ft.Footprint()
		total += len(fps[i])
	}
	cg := &ConflictGraph{keys: slices.Clone(keys)}
	slices.Sort(cg.keys)
	if len(slices.Compact(cg.keys)) < n {
		return nil
	}
	hs := make([]holding, 0, total)
	for i, fp := range fps {
		k := cg.KeyIndex(keys[i])
		for _, it := range fp {
			hs = append(hs, holding{it.Seq, k})
		}
	}
	if !cg.build(hs) {
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
// run each class barrier-to-barrier with lock-free contexts, verify
// footprints, and settle. Returns the round's stats plus the staleness
// grade (non-none means the caller must fall back to speculation; all
// unfinished work has been requeued). A super-round can be the whole
// job, so ctx is observed at every class barrier: once it has ended the
// classes not yet launched are requeued untouched.
func (e *Executor) coloredRound(ctx context.Context, cg *ConflictGraph, cs *coloredState) (RoundStats, staleness) {
	cs.batch = e.takeAll(cs.batch)
	batch, n := cs.batch, len(cs.batch)
	if n == 0 {
		return RoundStats{}, staleNone
	}
	defer clear(batch)
	s := &e.scratch
	s.grow(n)
	ctxs, errs := s.ctxs, s.errs

	// Group the batch into color classes, checking the preconditions the
	// coloring relies on: every task Footprinted, every key declared, at
	// most one live task per key.
	cs.keyIdx, cs.outside = resized(cs.keyIdx, n), resized(cs.outside, n)
	for i := range cs.classes {
		cs.classes[i] = cs.classes[i][:0]
	}
	cs.seenEpoch++
	for i, q := range batch {
		idx := int32(-1)
		if ft, ok := q.t.(Footprinted); ok {
			idx = cg.KeyIndex(ft.ConflictKey())
		}
		if idx < 0 || cs.seen[idx] == cs.seenEpoch {
			e.requeue(batch...)
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
	idBase := e.nextID.Add(int64(n)) - int64(n)

	for _, class := range cs.classes {
		if len(class) == 0 {
			continue
		}
		if stats.Launched > 0 && ctx.Err() != nil {
			for _, i := range class {
				s.requeue = append(s.requeue, batch[i])
			}
			continue
		}
		class := class
		e.dispatch(e.MaxParallel, len(class), func(j int) {
			i := class[j]
			c := ctxs[i]
			c.id = idBase + int64(i)
			c.colored = true
			// Colored contexts hold no locks: on an error, attempt's rollback
			// runs the undo log (a failing task may have mutated before
			// erroring) and its release is a no-op on unowned items.
			if errs[i] = attempt(batch[i].t, c); errs[i] == nil {
				// Post-hoc staleness check, made by the worker that ran the
				// task so the serial barrier only reads the verdict: every
				// acquired item must lie in the key's footprint. A subset
				// is fine (the graph is then conservative); anything new
				// means edges the graph lacks may exist.
				cs.outside[i] = !cg.covers(cs.keyIdx[i], c.acquired)
			}
		}, false)

		// Class barrier: verify footprints, settle outcomes, and run this
		// class's commit actions before the next class launches — later
		// classes may depend on them (structural mutations are deferred
		// here by the cautious-operator contract).
		for _, i := range class {
			c := ctxs[i]
			switch e.settle(batch[i], errs[i], budget, &stats) {
			case verdictAbort:
				// Operator-level conflict inside a supposedly
				// conflict-free class: the declarations lied.
				stale = staleHard
				fallthrough
			case verdictRetry:
				s.requeue = append(s.requeue, batch[i])
			case verdictCommit:
				if cs.outside[i] {
					// Finish this round, then run in rounds.
					stale = staleHard
				}
				first := len(s.spawned)
				s.spawned = e.admitSpawns(c, s.spawned, &stats)
				for _, q := range s.spawned[first:] {
					// A spawn with an undeclared key can't be colored next
					// round; trip a soft fallback now instead of discovering
					// it at the next grouping pass. (Soft never downgrades a
					// hard trip.)
					if ft, ok := q.t.(Footprinted); !ok || cg.KeyIndex(ft.ConflictKey()) < 0 {
						if stale == staleNone {
							stale = staleSoft
						}
					}
				}
				s.actions = append(s.actions, c.onCommit...)
			}
			c.scrub()
		}
		s.runActions()
	}

	e.requeue(s.requeue...)
	e.requeue(s.spawned...)
	clear(errs)
	s.requeue, s.spawned = emptied(s.requeue), emptied(s.spawned)
	e.addTotals(stats)
	return stats, stale
}
