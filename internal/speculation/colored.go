package speculation

import (
	"context"
	"slices"

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
	batch     []queued  // the super-round's entries: the whole work-set
	keyIdx    []int32   // round index -> dense key index
	classes   [][]int32 // color -> round indices
	seen      []uint64  // epoch marks per dense key (duplicate detection)
	seenEpoch uint64
	outside   []bool // round index -> the commit acquired outside its footprint
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
	batch := e.peek(cs)
	defer clear(batch)
	n := len(batch)
	keys, fps, total := make([]int64, n), make([][]*Item, n), 0
	for i, q := range batch {
		ft, ok := q.t.(Footprinted)
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

// peek copies the work-set into the super-round buffer for inspection,
// leaving it queued. The caller clears what it was handed.
func (e *Executor) peek(cs *coloredState) []queued {
	e.mu.Lock()
	cs.batch = append(cs.batch[:0], e.pending...)
	e.mu.Unlock()
	return cs.batch
}

// pendingCovered reports whether every pending task is keyed and its
// key is known to the recorder with no key shared by two live tasks —
// the precondition for the speculative→colored transition, checked
// before a snapshot is built.
func (e *Executor) pendingCovered(rec *ConflictRecorder, cs *coloredState) bool {
	batch := e.peek(cs)
	defer clear(batch)
	live := make(map[int64]struct{}, len(batch))
	for _, q := range batch {
		kt, keyed := q.t.(ConflictKeyed)
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
func (e *Executor) coloredRound(ctx context.Context, lg *LearnedGraph, cs *coloredState) (RoundStats, staleness) {
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
	// coloring relies on: every task keyed, every key learned, at most
	// one live task per key.
	cs.keyIdx, cs.outside = resized(cs.keyIdx, n), resized(cs.outside, n)
	for i := range cs.classes {
		cs.classes[i] = cs.classes[i][:0]
	}
	cs.seenEpoch++
	for i, q := range batch {
		idx := int32(-1)
		if kt, ok := q.t.(ConflictKeyed); ok {
			idx = lg.KeyIndex(kt.ConflictKey())
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
				cs.outside[i] = !lg.covers(cs.keyIdx[i], c.acquired)
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
				// conflict-free class: the learned graph lied.
				stale = staleHard
				fallthrough
			case verdictRetry:
				s.requeue = append(s.requeue, batch[i])
			case verdictCommit:
				if cs.outside[i] {
					// Finish this round, then relearn.
					stale = staleHard
				}
				first := len(s.spawned)
				s.spawned = e.admitSpawns(c, s.spawned, &stats)
				for _, q := range s.spawned[first:] {
					// A spawn with an unknown key can't be colored next
					// round; trip a soft fallback now instead of discovering
					// it at the next grouping pass. (Soft never downgrades a
					// hard trip.)
					if kt, ok := q.t.(ConflictKeyed); !ok || lg.KeyIndex(kt.ConflictKey()) < 0 {
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
