package speculation

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/rng"
)

// GraphWorkload lifts a CC graph into runtime tasks so the goroutine
// executor can run the same experiments as the model simulator: one task
// per node; adjacent tasks genuinely conflict (they both acquire the
// shared per-edge item), non-adjacent tasks never do. Committed tasks
// remove their node at commit time.
//
// Each node's footprint — its own item plus one item per incident edge,
// the same *Item in both endpoints' footprints — is materialised when
// the node is registered: at NewGraphWorkload for the initial graph, at
// the first TaskFor for a node a commit hook added later. A task body is
// then a flag load and an AcquireAll over a ready slice; it takes no lock
// and hashes nothing. Footprints never shrink: the edge item towards a
// neighbor that has since committed stays in the list, but that neighbor
// will never run again, so no other task acquires the item and it never
// costs a conflict.
type GraphWorkload struct {
	mu    sync.Mutex // guards g and nodes; never held while a task acquires
	g     *graph.Graph
	nodes []*graphNode // node ID -> registration, nil = unregistered
}

// graphNode is the runtime side of one CC-graph node and the task that
// processes it.
type graphNode struct {
	wl   *GraphWorkload
	id   int
	done atomic.Bool // set by the commit action: later attempts are no-ops
	// fp is the footprint. A later registration of a new neighbor swaps
	// in an extended copy, so an attempt running meanwhile keeps reading
	// the slice it loaded.
	fp atomic.Pointer[[]*Item]
}

// Run implements Task.
func (n *graphNode) Run(ctx *Ctx) error {
	if n.done.Load() {
		// Node already processed in an earlier round (stale retry);
		// nothing to do — commit as a no-op.
		return nil
	}
	if err := ctx.AcquireAll(*n.fp.Load()...); err != nil {
		return err
	}
	ctx.OnCommit(n.commit)
	return nil
}

// ConflictKey implements Footprinted: the task is keyed by its node,
// which it keeps across retries.
func (n *graphNode) ConflictKey() int64 { return int64(n.id) }

// Footprint implements Footprinted: the list Run acquires, as registered
// so far.
func (n *graphNode) Footprint() []*Item { return *n.fp.Load() }

// commit is the task's commit action: the processed node leaves the
// graph. Commit actions run serially, but the lock also orders them
// against a TaskFor from another goroutine.
func (n *graphNode) commit() {
	n.done.Store(true)
	n.wl.mu.Lock()
	n.wl.g.RemoveNode(n.id)
	n.wl.mu.Unlock()
}

// edgeSeq tags the item of edge {u, v}. +1 on the high half keeps edge
// Seqs disjoint from node Seqs: the edge (0, v) would otherwise carry
// node v's tag, and a conflict error naming it would be ambiguous.
// Items are told apart by pointer, so the tags are only diagnostics.
func edgeSeq(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return (int64(u)+1)<<32 | int64(v)
}

// GraphFootprints materialises the footprint of every live node of
// g, indexed by node ID (nil for dead IDs): the node's own item first,
// then one item per incident edge, the same *Item in both endpoints'
// lists — so two footprints intersect iff their nodes are adjacent. The
// result is three allocations whatever the size of g; each list is
// capped at its length, so appending to one reallocates it.
func GraphFootprints(g *graph.Graph) [][]*Item {
	ids := g.Nodes()
	bound := 0
	for _, v := range ids {
		if v >= bound {
			bound = v + 1
		}
	}
	fps := make([][]*Item, bound)
	items := make([]Item, len(ids)+g.NumEdges())
	slab := make([]*Item, len(ids)+2*g.NumEdges())
	newItem := func(seq int64) *Item {
		it := items[0].init(seq)
		items = items[1:]
		return it
	}
	// Carve each list at its final capacity, node item first; the edge
	// pass below appends into both endpoints' carvings.
	for _, v := range ids {
		c := 1 + g.Degree(v)
		fps[v] = append(slab[:0:c], newItem(int64(v)))
		slab = slab[c:]
	}
	for _, u := range ids {
		g.EachNeighbor(u, func(v int) {
			if u < v {
				it := newItem(edgeSeq(u, v))
				fps[u] = append(fps[u], it)
				fps[v] = append(fps[v], it)
			}
		})
	}
	return fps
}

// NewGraphWorkload wraps g (which it owns from now on) and registers
// every live node.
func NewGraphWorkload(g *graph.Graph) *GraphWorkload {
	wl := &GraphWorkload{g: g}
	fps := GraphFootprints(g)
	wl.nodes = make([]*graphNode, len(fps))
	regs := make([]graphNode, g.NumNodes())
	for i := range regs {
		n, v := &regs[i], g.NodeAt(i)
		n.wl, n.id = wl, v
		n.fp.Store(&fps[v])
		wl.nodes[v] = n
	}
	return wl
}

// Graph exposes the underlying graph for inspection between rounds.
func (wl *GraphWorkload) Graph() *graph.Graph { return wl.g }

// TaskFor returns the speculative task processing node v.
//
// A node added to the graph after construction (a commit hook regrowing
// work) is registered by its first TaskFor, so the hook must add the
// node's edges before calling it: the footprint is built from the
// adjacency at that moment, and every registered neighbor's footprint is
// extended with the shared edge item. An edge to a neighbor that is not
// registered yet is picked up when that neighbor registers. Edges added
// between two already-registered nodes are not conflicts the runtime
// sees.
func (wl *GraphWorkload) TaskFor(v int) Task {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	if v < len(wl.nodes) && wl.nodes[v] != nil {
		return wl.nodes[v]
	}
	for len(wl.nodes) <= v {
		wl.nodes = append(wl.nodes, nil)
	}
	n := &graphNode{wl: wl, id: v}
	n.done.Store(!wl.g.Has(v)) // a task for a node that is not there commits as a no-op
	items := make([]Item, 1+wl.g.Degree(v))
	fp := append(make([]*Item, 0, len(items)), items[0].init(int64(v)))
	wl.g.EachNeighbor(v, func(u int) {
		if u >= len(wl.nodes) || wl.nodes[u] == nil {
			return
		}
		it := items[len(fp)].init(edgeSeq(u, v))
		fp = append(fp, it)
		// Copy-on-write: capping the old list forces append to copy it.
		old := *wl.nodes[u].fp.Load()
		ext := append(old[:len(old):len(old)], it)
		wl.nodes[u].fp.Store(&ext)
	})
	n.fp.Store(&fp)
	wl.nodes[v] = n
	return n
}

// Populate adds one task per live node to the executor.
func (wl *GraphWorkload) Populate(e *Executor) {
	for _, v := range wl.g.Nodes() {
		e.Add(wl.TaskFor(v))
	}
}

// NewGraphExecutor builds an executor over the workload with the model's
// uniform-random task selection, seeded from r.
func NewGraphExecutor(wl *GraphWorkload, r *rng.Rand) *Executor {
	var mu sync.Mutex
	e := NewExecutor(func(n int) int {
		mu.Lock()
		defer mu.Unlock()
		return r.Intn(n)
	})
	wl.Populate(e)
	return e
}
