package mesh

import (
	"sync/atomic"

	"repro/internal/speculation"
)

// SpeculativeRefiner runs Delaunay refinement on the optimistic runtime:
// each bad triangle is a speculative task whose conflict set is its
// insertion cavity — exactly the paper's §2 description ("two bad
// triangles can be processed in parallel, given that their cavities do
// not overlap"). Cavity overlap is detected through per-triangle
// abstract items; losers abort and retry in later rounds.
//
// The operator is cautious: a task's speculative phase only reads the
// mesh (refinement point, location from the bad triangle, cavity) and
// acquires what it read, and the mesh changes only in commit actions. Those
// run serially after the round barrier, so the reads need no mutex. This
// relies on the barrier: the refiner must not be driven barrier-free.
type SpeculativeRefiner struct {
	m     *Mesh
	q     Quality
	items []*speculation.Item // by triangle ID, nil once dead; changed only by commits
	exec  *speculation.Executor
	stale atomic.Int64

	Inserted int // points successfully inserted (commit actions)
}

// NewSpeculativeRefiner wraps mesh m (owned afterwards). pick selects
// pending-task indices (nil = LIFO; pass a seeded uniform picker for the
// model's random selection).
func NewSpeculativeRefiner(m *Mesh, q Quality, pick func(n int) int) *SpeculativeRefiner {
	r := &SpeculativeRefiner{
		m:    m,
		q:    q,
		exec: speculation.NewExecutor(pick),
	}
	for _, t := range m.tris {
		var it *speculation.Item
		if t != nil {
			it = speculation.NewItem(int64(t.ID))
		}
		r.items = append(r.items, it)
	}
	for _, id := range m.BadTriangles(q) {
		r.exec.Add(r.taskFor(id))
	}
	return r
}

// Executor exposes the underlying speculative executor.
func (r *SpeculativeRefiner) Executor() *speculation.Executor { return r.exec }

// StaleOK returns the number of tasks that committed without inserting
// (triangle gone or good, or no refinement point).
func (r *SpeculativeRefiner) StaleOK() int { return int(r.stale.Load()) }

// adoptItems gives the triangles an insertion created lock items: first
// those of the cavity it removed, then new ones. Reuse is safe in the
// commit phase, where every lock is released, and a dead triangle is
// never locked again: a task for it commits stale, and cavities grow
// through live neighbors only.
func (r *SpeculativeRefiner) adoptItems(cavity []int) {
	for id := len(r.items); id < len(r.m.tris); id++ {
		var it *speculation.Item
		if len(cavity) > 0 {
			it, r.items[cavity[0]] = r.items[cavity[0]], nil
			it.Seq = int64(id)
			cavity = cavity[1:]
		} else {
			it = speculation.NewItem(int64(id))
		}
		r.items = append(r.items, it)
	}
}

// taskFor builds the speculative task refining triangle id.
func (r *SpeculativeRefiner) taskFor(id int) speculation.Task {
	return speculation.TaskFunc(func(ctx *speculation.Ctx) error {
		// Read phase: the mesh is round-consistent, since it mutates
		// only in commit actions, which run after the round barrier.
		t := r.m.Triangle(id)
		if t == nil || !r.q.IsBad(r.m, t) {
			r.stale.Add(1)
			return nil // no-op commit: work item is stale
		}
		p, ok := r.m.RefinePointQ(t, r.q)
		if !ok {
			r.stale.Add(1)
			return nil
		}
		loc := r.m.locateFrom(t, p)
		if loc < 0 {
			r.stale.Add(1)
			return nil
		}

		// Conflict-detection phase: overlapping cavities race on the
		// shared triangle items; exactly one task wins each item.
		if err := ctx.Acquire(r.items[id]); err != nil {
			return err
		}
		var buf [32]int
		for _, cid := range r.m.Cavity(buf[:0], loc, p) {
			if err := ctx.Acquire(r.items[cid]); err != nil {
				return err
			}
		}

		// Commit phase (serial): re-validate and apply the insertion on
		// the then-current mesh.
		ctx.OnCommit(func() { r.commitInsert(id) })
		return nil
	})
}

// commitInsert performs the actual refinement of triangle id, enqueuing
// any newly created bad triangles. It runs serially (commit actions).
func (r *SpeculativeRefiner) commitInsert(id int) {
	t := r.m.Triangle(id)
	if t == nil || !r.q.IsBad(r.m, t) {
		r.stale.Add(1)
		return
	}
	p, ok := r.m.RefinePointQ(t, r.q)
	if !ok {
		r.stale.Add(1)
		return
	}
	loc := r.m.locateFrom(t, p)
	if loc < 0 {
		r.stale.Add(1)
		return
	}
	var buf [32]int
	cavity := r.m.Cavity(buf[:0], loc, p)
	_, created := r.m.InsertInCavity(p, cavity)
	r.Inserted++
	r.adoptItems(cavity)
	for _, nid := range created {
		if nt := r.m.tris[nid]; nt != nil && r.q.IsBad(r.m, nt) {
			r.exec.Add(r.taskFor(nid))
		}
	}
	// A hull-midpoint split may leave the original triangle alive and
	// still bad: requeue it like the sequential refiner does.
	if ot := r.m.tris[id]; ot != nil && r.q.IsBad(r.m, ot) {
		r.exec.Add(r.taskFor(id))
	}
}
