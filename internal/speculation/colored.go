package speculation

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"repro/internal/control"
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
// RunColored phases:
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
// Controller interaction: colored rounds never call ctrl.Observe — the
// controller's r̄ reflects speculative rounds only, so Algorithm 1
// resumes governing m the moment a fallback returns the executor to
// speculation (see control.Controller).

// ColoredOptions configures Executor.RunColored. The zero value is
// ready: defaults from conflict.go apply and the drive runs to drain.
type ColoredOptions struct {
	// StableRounds is how many consecutive committing rounds must add no
	// new conflict observation before the graph is colored (default
	// DefaultStableRounds).
	StableRounds int
	// MaxItems / MaxKeysPerItem bound the conflict recorder (defaults
	// DefaultRecorderMaxItems / DefaultRecorderMaxKeysPerItem). On
	// overflow the job stays speculative — degraded, never wrong.
	MaxItems       int
	MaxKeysPerItem int
	// MaxRounds caps the total number of rounds (speculative and
	// colored); 0 means unbounded.
	MaxRounds int
	// MaxCommits stops the drive once at least this many tasks have
	// committed (checked at round boundaries); 0 means run to drain.
	MaxCommits int64
	// OnRound, when non-nil, observes every round (both phases) from the
	// driving goroutine.
	OnRound func(ColoredRound)
}

// ColoredRound reports one round of a colored drive.
type ColoredRound struct {
	Round     int  // 0-based round index within the drive
	Colored   bool // false: speculative (learning) round, true: colored
	M         int  // speculative: controller's m; colored: tasks launched
	Launched  int
	Committed int
	Aborted   int
	Failed    int
	Poisoned  int
	Spawned   int
	R         float64 // conflict ratio of this round (~0 when colored)
	Colors    int     // number of color classes (colored rounds only)
	Fallback  bool    // this round tripped the staleness detector
}

// ColoredResult aggregates a colored drive.
type ColoredResult struct {
	Rounds        int // total rounds driven
	SpecRounds    int // speculative (learning) rounds
	ColoredRounds int // colored super-rounds
	Colorings     int // speculative→colored transitions (snapshots colored)
	Fallbacks     int // colored→speculative transitions (staleness trips)
	Colors        int // color count of the most recent coloring

	Launched  int64
	Committed int64
	Aborted   int64
	Failed    int64
	Poisoned  int64
	Spawned   int64

	// ColoredCommits / ColoredAborts split out the colored-phase share:
	// in steady state ColoredAborts is 0 — the acceptance signal that
	// colored rounds run conflict-free.
	ColoredCommits int64
	ColoredAborts  int64

	Canceled bool // the context was canceled before drain
	Degraded bool // recorder gave up (unkeyed task or overflow)
}

// ConflictRatio returns the drive-wide aborts/launches.
func (r *ColoredResult) ConflictRatio() float64 {
	if r.Launched == 0 {
		return 0
	}
	return float64(r.Aborted) / float64(r.Launched)
}

// ColoredConflictRatio returns aborts/launches over colored rounds only
// (~0 unless a staleness trip aborted work mid-class).
func (r *ColoredResult) ColoredConflictRatio() float64 {
	launched := r.ColoredCommits + r.ColoredAborts
	if launched == 0 {
		return 0
	}
	return float64(r.ColoredAborts) / float64(launched)
}

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

// RunColored drives the executor in hybrid speculative→colored mode
// until the work-set drains (or a bound/cancellation stops it). Must be
// called from one goroutine at a time, like Round. The controller
// governs the speculative phases exactly as in RunAdaptive; colored
// rounds are invisible to it.
func (e *Executor) RunColored(ctx context.Context, ctrl control.Controller, opts ColoredOptions) *ColoredResult {
	if opts.StableRounds <= 0 {
		opts.StableRounds = DefaultStableRounds
	}
	rec := NewConflictRecorder(opts.MaxItems, opts.MaxKeysPerItem)
	e.rec = rec
	defer func() { e.rec = nil }()

	res := &ColoredResult{}
	var cs coloredState
	var lg *LearnedGraph

	for {
		if ctx != nil && ctx.Err() != nil {
			res.Canceled = true
			break
		}
		if e.Pending() == 0 {
			break
		}
		if opts.MaxRounds > 0 && res.Rounds >= opts.MaxRounds {
			break
		}
		if opts.MaxCommits > 0 && res.Committed >= opts.MaxCommits {
			break
		}

		if lg == nil {
			// Speculative (learning) round under the controller.
			m := ctrl.M()
			st := e.Round(m)
			ctrl.Observe(st.ConflictRatio())
			res.SpecRounds++
			res.fold(st)
			emit(opts.OnRound, ColoredRound{
				Round: res.Rounds, M: m,
				Launched: st.Launched, Committed: st.Committed,
				Aborted: st.Aborted, Failed: st.Failed,
				Poisoned: st.Poisoned, Spawned: st.Spawned,
				R: st.ConflictRatio(),
			})
			res.Rounds++
			if rec.Degraded() {
				res.Degraded = true
			} else if rec.Stable(opts.StableRounds) && e.Pending() > 0 {
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

		// Colored super-round (not observed by the controller).
		st, stale := e.coloredRound(lg, &cs)
		res.ColoredRounds++
		res.fold(st)
		res.ColoredCommits += int64(st.Committed)
		res.ColoredAborts += int64(st.Aborted)
		emit(opts.OnRound, ColoredRound{
			Round: res.Rounds, Colored: true, M: st.Launched,
			Launched: st.Launched, Committed: st.Committed,
			Aborted: st.Aborted, Failed: st.Failed,
			Poisoned: st.Poisoned, Spawned: st.Spawned,
			R: st.ConflictRatio(), Colors: res.Colors, Fallback: stale != staleNone,
		})
		res.Rounds++
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
	return res
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

func (r *ColoredResult) fold(st RoundStats) {
	r.Launched += int64(st.Launched)
	r.Committed += int64(st.Committed)
	r.Aborted += int64(st.Aborted)
	r.Failed += int64(st.Failed)
	r.Poisoned += int64(st.Poisoned)
	r.Spawned += int64(st.Spawned)
}

func emit(fn func(ColoredRound), cr ColoredRound) {
	if fn != nil {
		fn(cr)
	}
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
