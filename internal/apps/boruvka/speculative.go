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
	hasTask map[int]bool // root -> a pending task is keyed to it
	exec    *speculation.Executor

	MSF []Edge
}

// NewSpeculativeMSF prepares the workload for graph g. pick selects
// pending-task indices (nil = LIFO).
func NewSpeculativeMSF(g *WGraph, pick func(n int) int) *SpeculativeMSF {
	s := &SpeculativeMSF{
		uf:      NewUnionFind(g.N),
		edges:   make([][]Edge, g.N),
		items:   make([]*speculation.Item, g.N),
		hasTask: make(map[int]bool, g.N),
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
		s.hasTask[v] = true
		s.exec.Add(s.taskFor(v))
	}
	return s
}

// Executor exposes the underlying speculative executor.
func (s *SpeculativeMSF) Executor() *speculation.Executor { return s.exec }

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

// taskFor builds the speculative task advancing the component rooted at
// x (stale if x is no longer a root).
func (s *SpeculativeMSF) taskFor(x int) speculation.Task {
	return speculation.TaskFunc(func(ctx *speculation.Ctx) error {
		s.mu.Lock()
		if s.uf.Find(x) != x {
			// Component was absorbed; its new root has its own task.
			delete(s.hasTask, x)
			s.mu.Unlock()
			return nil
		}
		e, y, ok := s.minOutgoing(x)
		if !ok {
			// Finished component (spanning tree complete on its side).
			delete(s.hasTask, x)
			s.mu.Unlock()
			return nil
		}
		s.mu.Unlock()

		// Speculative phase: race for both component locks. A
		// concurrent merge touching either component conflicts here.
		if err := ctx.AcquireAll(s.items[x], s.items[y]); err != nil {
			return err
		}
		ctx.OnCommit(func() { s.commitMerge(x, y, e) })
		return nil
	})
}

// commitMerge joins components x and y through edge e. Runs serially in
// the commit phase.
func (s *SpeculativeMSF) commitMerge(x, y int, e Edge) {
	s.mu.Lock()
	delete(s.hasTask, x) // this component's task was just consumed
	rx, ry := s.uf.Find(x), s.uf.Find(y)
	var spawn []int
	if rx != ry {
		r := s.uf.Union(rx, ry)
		s.MSF = append(s.MSF, e)
		// Meld candidate lists into the surviving root.
		loser := rx
		if r == rx {
			loser = ry
		}
		s.edges[r] = append(s.edges[r], s.edges[loser]...)
		s.edges[loser] = nil
		if !s.hasTask[r] {
			s.hasTask[r] = true
			spawn = append(spawn, r)
		}
	} else if !s.hasTask[rx] {
		// Defensive: already merged by someone else — keep the
		// component driven.
		s.hasTask[rx] = true
		spawn = append(spawn, rx)
	}
	s.mu.Unlock()
	for _, r := range spawn {
		s.exec.Add(s.taskFor(r))
	}
}

// Result packages the forest built so far.
func (s *SpeculativeMSF) Result() Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	edges := append([]Edge(nil), s.MSF...)
	return Result{Edges: edges, Weight: TotalWeight(edges)}
}
