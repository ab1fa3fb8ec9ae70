package boruvka

import (
	"sync"

	"repro/internal/speculation"
)

// SpeculativeMSF builds the minimum spanning forest on the optimistic
// runtime: each live component is one speculative task that locates its
// minimum outgoing edge and merges with the neighbor component. Two
// merges conflict iff they share a component — detected by racing on
// per-root abstract locks, exactly the conflict structure the paper's
// CC-graph model abstracts.
type SpeculativeMSF struct {
	mu      sync.Mutex
	uf      *UnionFind
	edges   [][]Edge // candidate outgoing edges per component root
	items   []*speculation.Item
	hasTask []bool      // indexed by root: a pending task is keyed to it
	tasks   []*rootTask // by root, built on first use
	exec    *speculation.Executor

	MSF []Edge
}

// rootTask advances the component rooted at x (stale if x is no longer
// a root). It is built once per root and re-added whenever the root is
// enqueued again; y and e carry the chosen merge from the speculative
// phase to the commit action.
type rootTask struct {
	s      *SpeculativeMSF
	x, y   int
	e      Edge
	commit func()
}

// NewSpeculativeMSF prepares the workload for graph g. pick selects
// pending-task indices (nil = LIFO).
func NewSpeculativeMSF(g *WGraph, pick func(n int) int) *SpeculativeMSF {
	s := &SpeculativeMSF{
		uf:      NewUnionFind(g.N),
		edges:   make([][]Edge, g.N),
		items:   make([]*speculation.Item, g.N),
		hasTask: make([]bool, g.N),
		tasks:   make([]*rootTask, g.N),
		exec:    speculation.NewExecutor(pick),
	}
	for i := range s.items {
		s.items[i] = speculation.NewItem(int64(i))
	}
	for _, e := range g.Edges {
		s.edges[e.U] = append(s.edges[e.U], e)
		s.edges[e.V] = append(s.edges[e.V], e)
	}
	for v := 0; v < g.N; v++ {
		s.enqueue(v)
	}
	return s
}

// Executor exposes the underlying speculative executor.
func (s *SpeculativeMSF) Executor() *speculation.Executor { return s.exec }

// enqueue adds root x's task to the work-set and marks it pending.
func (s *SpeculativeMSF) enqueue(x int) {
	t := s.tasks[x]
	if t == nil {
		t = &rootTask{s: s, x: x}
		t.commit = func() { s.commitMerge(t.x, t.y, t.e) }
		s.tasks[x] = t
	}
	s.hasTask[x] = true
	s.exec.Add(t)
}

// minOutgoing scans (and compacts) the candidate edges of root x,
// returning the minimum edge leaving the component and the other
// endpoint's root. ok is false when the component has no outgoing edge.
// Caller must hold s.mu.
func (s *SpeculativeMSF) minOutgoing(x int) (Edge, int, bool) {
	cand := s.edges[x]
	kept := cand[:0]
	var best Edge
	bestRoot := -1
	for _, e := range cand {
		ru, rv := s.uf.Find(e.U), s.uf.Find(e.V)
		if ru == rv {
			continue // internal edge: drop permanently
		}
		kept = append(kept, e)
		other := ru
		if ru == x {
			other = rv
		}
		if bestRoot < 0 || e.less(best) {
			best, bestRoot = e, other
		}
	}
	s.edges[x] = kept
	if bestRoot < 0 {
		return Edge{}, -1, false
	}
	return best, bestRoot, true
}

// Run is one speculative step of component x: find its minimum outgoing
// edge, then lock both components it joins.
func (t *rootTask) Run(ctx *speculation.Ctx) error {
	s, x := t.s, t.x
	s.mu.Lock()
	if s.uf.Find(x) != x {
		// Component was absorbed; its new root has its own task.
		s.hasTask[x] = false
		s.mu.Unlock()
		return nil
	}
	e, y, ok := s.minOutgoing(x)
	if !ok {
		// Finished component (spanning tree complete on its side).
		s.hasTask[x] = false
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	// Speculative phase: race for both component locks. A concurrent
	// merge touching either component conflicts here.
	if err := ctx.AcquireAll(s.items[x], s.items[y]); err != nil {
		return err
	}
	t.y, t.e = y, e
	ctx.OnCommit(t.commit)
	return nil
}

// commitMerge joins components x and y through edge e. Runs serially in
// the commit phase.
func (s *SpeculativeMSF) commitMerge(x, y int, e Edge) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hasTask[x] = false // this component's task was just consumed
	rx, ry := s.uf.Find(x), s.uf.Find(y)
	if rx != ry {
		r := s.uf.Union(rx, ry)
		s.MSF = append(s.MSF, e)
		// Meld the shorter candidate list into the longer one and give
		// the result to the surviving root. Order within a list does not
		// matter: minOutgoing picks by Edge.less, a total order.
		long, short := s.edges[rx], s.edges[ry]
		if len(short) > len(long) {
			long, short = short, long
		}
		s.edges[rx], s.edges[ry] = nil, nil
		s.edges[r] = append(long, short...)
		if !s.hasTask[r] {
			s.enqueue(r)
		}
	} else if !s.hasTask[rx] {
		// Defensive: already merged by someone else — keep the
		// component driven.
		s.enqueue(rx)
	}
}

// Result packages the forest built so far.
func (s *SpeculativeMSF) Result() Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	edges := append([]Edge(nil), s.MSF...)
	return Result{Edges: edges, Weight: TotalWeight(edges)}
}
