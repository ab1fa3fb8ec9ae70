package mesh

import (
	"sync"

	"repro/internal/speculation"
)

// SpeculativeRefiner runs Delaunay refinement on the optimistic runtime:
// each bad triangle is a speculative task whose conflict set is its
// insertion cavity — exactly the paper's §2 description ("two bad
// triangles can be processed in parallel, given that their cavities do
// not overlap"). Cavity overlap is detected through per-triangle
// abstract locks; losers abort, roll back, and retry in later rounds.
type SpeculativeRefiner struct {
	mu    sync.Mutex
	m     *Mesh
	q     Quality
	items map[int]*speculation.Item
	exec  *speculation.Executor

	Inserted int // points successfully inserted (commit actions)
	StaleOK  int // tasks that committed as no-ops (triangle gone/good)
}

// NewSpeculativeRefiner wraps mesh m (owned afterwards). pick selects
// pending-task indices (nil = LIFO; pass a seeded uniform picker for the
// model's random selection).
func NewSpeculativeRefiner(m *Mesh, q Quality, pick func(n int) int) *SpeculativeRefiner {
	r := &SpeculativeRefiner{
		m:     m,
		q:     q,
		items: make(map[int]*speculation.Item),
		exec:  speculation.NewExecutor(pick),
	}
	for _, id := range m.BadTriangles(q) {
		r.exec.Add(r.taskFor(id))
	}
	return r
}

// Executor exposes the underlying speculative executor.
func (r *SpeculativeRefiner) Executor() *speculation.Executor { return r.exec }

func (r *SpeculativeRefiner) itemFor(id int) *speculation.Item {
	if it, ok := r.items[id]; ok {
		return it
	}
	it := speculation.NewItem(int64(id))
	r.items[id] = it
	return it
}

// taskFor builds the speculative task refining triangle id.
func (r *SpeculativeRefiner) taskFor(id int) speculation.Task {
	return speculation.TaskFunc(func(ctx *speculation.Ctx) error {
		// Snapshot phase (round-consistent: mesh mutates only in
		// commit actions, which run after the round barrier).
		r.mu.Lock()
		t := r.m.Triangle(id)
		if t == nil || !r.q.IsBad(r.m, t) {
			r.mu.Unlock()
			r.noteStale()
			return nil // no-op commit: work item is stale
		}
		p, ok := r.m.RefinePointQ(t, r.q)
		if !ok {
			r.mu.Unlock()
			r.noteStale()
			return nil
		}
		loc := r.m.Locate(p)
		if loc < 0 {
			r.mu.Unlock()
			r.noteStale()
			return nil
		}
		cavity := r.m.Cavity(loc, p)
		locks := make([]*speculation.Item, 0, len(cavity)+1)
		locks = append(locks, r.itemFor(id))
		for _, cid := range cavity {
			if cid != id {
				locks = append(locks, r.itemFor(cid))
			}
		}
		r.mu.Unlock()

		// Conflict-detection phase: overlapping cavities race on the
		// shared triangle items; exactly one task wins each item.
		if err := ctx.AcquireAll(locks...); err != nil {
			return err
		}

		// Commit phase (serial): re-validate and apply the insertion on
		// the then-current mesh.
		ctx.OnCommit(func() { r.commitInsert(id) })
		return nil
	})
}

func (r *SpeculativeRefiner) noteStale() {
	r.mu.Lock()
	r.StaleOK++
	r.mu.Unlock()
}

// commitInsert performs the actual refinement of triangle id, enqueuing
// any newly created bad triangles. It runs serially (commit actions).
func (r *SpeculativeRefiner) commitInsert(id int) {
	r.mu.Lock()
	t := r.m.Triangle(id)
	if t == nil || !r.q.IsBad(r.m, t) {
		r.StaleOK++
		r.mu.Unlock()
		return
	}
	p, ok := r.m.RefinePointQ(t, r.q)
	if !ok {
		r.mu.Unlock()
		return
	}
	loc := r.m.Locate(p)
	if loc < 0 {
		r.mu.Unlock()
		return
	}
	cavity := r.m.Cavity(loc, p)
	_, created := r.m.InsertInCavity(p, cavity)
	r.Inserted++
	// Drop the killed triangles' items to bound the lock table.
	for _, cid := range cavity {
		delete(r.items, cid)
	}
	var newBad []int
	for _, nid := range created {
		if nt := r.m.Triangle(nid); nt != nil && r.q.IsBad(r.m, nt) {
			newBad = append(newBad, nid)
		}
	}
	// A hull-midpoint split may leave the original triangle alive and
	// still bad: requeue it like the sequential refiner does.
	if ot := r.m.Triangle(id); ot != nil && r.q.IsBad(r.m, ot) {
		newBad = append(newBad, id)
	}
	r.mu.Unlock()
	for _, nid := range newBad {
		r.exec.Add(r.taskFor(nid))
	}
}
