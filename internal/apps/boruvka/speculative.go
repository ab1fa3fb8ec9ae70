package boruvka

import (
	"math"

	"repro/internal/speculation"
)

// SpeculativeMSF builds the minimum spanning forest on the optimistic
// runtime, as Cheriton and Tarjan (1976) run Boruvka: each live
// component is one speculative task that pops its heap of candidate
// edges down to the minimum outgoing edge and merges with the neighbor
// component. Two merges conflict iff they share a component — detected
// through per-root abstract items, exactly the conflict structure the
// paper's CC-graph model abstracts.
//
// The operator is cautious and takes no mutex. A task's speculative
// phase reads the union-find forest without compressing it (union by
// rank keeps every path under log2 N links), and writes only the heap of
// its own root, which no other task touches (a root has at most one
// pending task), whether it wins the round or not; the union, the meld
// and the forest are commit actions, which run one at a time after the
// round barrier. So it depends on that barrier and must not run
// barrier-free (async), where a commit would write the forest while
// other tasks read it.
type SpeculativeMSF struct {
	edges   []Edge
	uf      *UnionFind
	heap    []halfEdge // pairing-heap nodes: 2i is edge i at U, 2i+1 at V
	top     []int32    // by root: its heap's root node, -1 when empty
	size    []int      // by root: vertices in its component
	full    []int      // by vertex: vertices in its graph component
	items   []*speculation.Item
	hasTask []bool      // indexed by root: a pending task is keyed to it
	tasks   []*rootTask // by root, built on first use
	exec    *speculation.Executor

	MSF []Edge
}

// halfEdge is one endpoint's copy of an edge in its component's pairing
// heap, ordered by the edge's (W, ID) as Edge.compare orders edges. A
// heap root's next is -1.
type halfEdge struct {
	w           float64
	id          int
	other       int32 // the edge's other endpoint
	child, next int32 // first child and next sibling, -1 for none
}

func (h *halfEdge) less(o *halfEdge) bool {
	if h.w != o.w {
		return h.w < o.w
	}
	return h.id < o.id
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
	if g.N > math.MaxInt32 || len(g.Edges) > math.MaxInt32/2 {
		panic("boruvka: graph too large for int32 heap indices")
	}
	s := &SpeculativeMSF{
		edges:   g.Edges,
		uf:      NewUnionFind(g.N),
		heap:    make([]halfEdge, 2*len(g.Edges)),
		top:     make([]int32, g.N),
		size:    make([]int, g.N),
		full:    make([]int, g.N),
		items:   make([]*speculation.Item, g.N),
		hasTask: make([]bool, g.N),
		tasks:   make([]*rootTask, g.N),
		exec:    speculation.NewExecutor(pick),
		MSF:     make([]Edge, 0, g.N),
	}
	for i := range s.items {
		s.items[i] = speculation.NewItem(int64(i))
		s.top[i] = -1
		s.size[i] = 1
	}
	for i, e := range g.Edges {
		u, v := int32(2*i), int32(2*i+1)
		s.heap[u] = halfEdge{w: e.W, id: e.ID, other: int32(e.V), child: -1, next: -1}
		s.heap[v] = halfEdge{w: e.W, id: e.ID, other: int32(e.U), child: -1, next: -1}
		s.top[e.U] = s.link(s.top[e.U], u)
		s.top[e.V] = s.link(s.top[e.V], v)
	}
	// Graph component sizes, counted at each component's root and then
	// copied to its vertices: a component that has grown to its graph
	// component's size has no outgoing edge left.
	cc := NewUnionFind(g.N)
	for _, e := range g.Edges {
		cc.Union(e.U, e.V)
	}
	for v := range s.full {
		s.full[cc.Find(v)]++
	}
	for v := range s.full {
		s.full[v] = s.full[cc.Find(v)]
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

// link melds the heaps rooted at a and b (either may be -1) and returns
// the root of the result: the larger root becomes the smaller's first
// child.
func (s *SpeculativeMSF) link(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	h := s.heap
	if h[b].less(&h[a]) {
		a, b = b, a
	}
	h[b].next = h[a].child
	h[a].child = b
	return a
}

// pop removes heap root r and returns the root of the heap its children
// form, by the two-pass pairing of Fredman et al. (1986).
func (s *SpeculativeMSF) pop(r int32) int32 {
	h := s.heap
	// Left to right: link the children in pairs, stacking the winners
	// on a list threaded through next.
	stack := int32(-1)
	for c := h[r].child; c >= 0; {
		a, b := c, h[c].next
		if b < 0 {
			h[a].next = stack
			stack = a
			break
		}
		c = h[b].next
		h[a].next, h[b].next = -1, -1
		w := s.link(a, b)
		h[w].next = stack
		stack = w
	}
	// Right to left: link the winners into one heap.
	root := int32(-1)
	for stack >= 0 {
		next := h[stack].next
		h[stack].next = -1
		root = s.link(root, stack)
		stack = next
	}
	return root
}

// minOutgoing pops root x's heap down to the minimum edge leaving the
// component and returns that half-edge. An edge inside the component
// stays inside it, so a popped edge is never needed again. The caller
// is x's one task, so no other task touches this heap, and has checked
// that the component is not finished, so an outgoing edge exists.
func (s *SpeculativeMSF) minOutgoing(x int) int32 {
	for {
		h := s.top[x]
		if s.uf.root(int(s.heap[h].other)) != x {
			return h
		}
		s.top[x] = s.pop(h)
	}
}

// Run is one speculative step of component x: acquire it, find its
// minimum outgoing edge, then acquire the component at the edge's other
// end.
func (t *rootTask) Run(ctx *speculation.Ctx) error {
	s, x := t.s, t.x
	if s.uf.root(x) != x || s.size[x] == s.full[x] {
		// Absorbed (its new root has its own task), or finished: the
		// component spans its graph component, so no edge leaves it.
		s.hasTask[x] = false
		return nil
	}
	// Speculative phase: acquire both components. A merge of the round
	// touching either component conflicts with this one.
	if err := ctx.Acquire(s.items[x]); err != nil {
		return err
	}
	h := s.minOutgoing(x)
	y := s.uf.root(int(s.heap[h].other))
	if err := ctx.Acquire(s.items[y]); err != nil {
		return err
	}
	t.y, t.e = y, s.edges[h>>1]
	ctx.OnCommit(t.commit)
	return nil
}

// commitMerge joins components x and y through edge e. Runs serially in
// the commit phase. Both are still roots: the round's walk kept every
// other commit of the round off them.
func (s *SpeculativeMSF) commitMerge(x, y int, e Edge) {
	s.hasTask[x] = false // this component's task was just consumed
	r := s.uf.Union(x, y)
	s.MSF = append(s.MSF, e)
	s.size[r] = s.size[x] + s.size[y]
	top := s.link(s.top[x], s.top[y])
	s.top[x], s.top[y] = -1, -1
	s.top[r] = top
	if !s.hasTask[r] {
		s.enqueue(r)
	}
}

// Result packages the forest built so far. Call it between rounds, not
// while one runs.
func (s *SpeculativeMSF) Result() Result {
	edges := append([]Edge(nil), s.MSF...)
	return Result{Edges: edges, Weight: TotalWeight(edges)}
}
