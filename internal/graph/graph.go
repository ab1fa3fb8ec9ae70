// Package graph implements the dynamic undirected graphs that serve as
// computations/conflicts (CC) graphs in the paper's model (§2): nodes are
// pending computations, edges are conflicts between them. The scheduler
// removes committed nodes and application hooks may insert new nodes and
// edges, so the structure supports efficient insertion, deletion, and
// uniform random sampling of live nodes.
//
// There is one mutable type and one frozen view of it. Graph is the
// graph that changes — the simulator, the parallelism profiles and the
// runtime's cc workload commit nodes out of it and regrow it; it lives
// in flat arrays indexed by node ID (no maps), deletes in O(degree), and
// is single-writer. CSR is an immutable, densely renumbered snapshot of
// a Graph that any number of Monte Carlo workers can read without
// locks; it cannot be edited. Node IDs index arrays, so a graph's memory
// follows the largest ID ever issued and IDs stay below 2³¹.
//
// The package also hosts the generator families used by the paper's
// evaluation (random graphs with a target average degree, unions of
// cliques K^n_d, the clique-plus-isolated-nodes graph of Example 1, and a
// handful of standard topologies) and the greedy maximal-independent-set
// primitive that defines the model's conflict-resolution semantics.
package graph

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// maxNodes bounds the node ID space: IDs index flat arrays and are
// stored as int32 inside adjacency lists.
const maxNodes = math.MaxInt32

// arc is one direction of an undirected edge as stored in an adjacency
// list: the neighbor, and the index of the opposite arc in the
// neighbor's own list. The back index is what makes edge and node
// removal O(degree) with no search — a clique drains as cheaply as a
// sparse graph.
type arc struct {
	to  int32
	rev int32 // adj[to][rev] is the arc pointing back here
}

// Graph is a mutable undirected simple graph with integer node IDs.
// Node IDs are assigned by AddNode and remain stable until removal; the
// dense index maintained alongside the adjacency structure supports O(1)
// uniform sampling of live nodes, which the paper's scheduler performs
// every round.
//
// Storage is flat arrays indexed by node ID — no hashing anywhere — so
// memory is proportional to the largest ID ever issued, not to the live
// count: a removed node keeps its 28-byte slot (its adjacency list is
// released). Costs: AddNode, Degree and NodeAt are O(1); AddEdge, HasEdge
// and RemoveEdge scan the shorter endpoint list; RemoveNode is
// O(degree); neighbor iteration is a slice walk.
//
// Graph is not safe for concurrent mutation.
type Graph struct {
	adj    [][]arc // node ID -> neighbor arcs; nil for dead and never-issued IDs
	pos    []int32 // node ID -> index into nodes, -1 = dead; len(pos) bounds every ID
	nodes  []int   // dense list of live node IDs
	edges  int
	probes int // arcs AddEdge's duplicate checks may have compared; link adds none
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// NewWithNodes returns a graph with n isolated nodes with IDs 0..n-1.
func NewWithNodes(n int) *Graph {
	g := &Graph{
		adj:   make([][]arc, n),
		pos:   make([]int32, n),
		nodes: make([]int, n),
	}
	for i := range g.nodes {
		g.pos[i] = int32(i)
		g.nodes[i] = i
	}
	return g
}

// AddNode inserts a fresh node and returns its ID.
func (g *Graph) AddNode() int {
	id := len(g.pos)
	if id >= maxNodes {
		panic(fmt.Sprintf("graph: node ID %d out of range", id))
	}
	g.adj = append(g.adj, nil)
	g.pos = append(g.pos, int32(len(g.nodes)))
	g.nodes = append(g.nodes, id)
	return id
}

// Has reports whether node id is live.
func (g *Graph) Has(id int) bool {
	return uint(id) < uint(len(g.pos)) && g.pos[id] >= 0
}

// arcs returns id's adjacency list, nil for dead or out-of-range IDs.
func (g *Graph) arcs(id int) []arc {
	if uint(id) >= uint(len(g.adj)) {
		return nil
	}
	return g.adj[id]
}

// findArc returns the index in u's list of the arc to v, or -1. It scans
// whichever endpoint list is shorter and follows the back index.
func (g *Graph) findArc(u, v int) int {
	au, av := g.arcs(u), g.arcs(v)
	if len(av) < len(au) {
		for _, a := range av {
			if int(a.to) == u {
				return int(a.rev)
			}
		}
		return -1
	}
	for i, a := range au {
		if int(a.to) == v {
			return i
		}
	}
	return -1
}

// link appends the edge {u, v} without looking for a duplicate: the
// caller guarantees both endpoints are live, distinct and not yet
// adjacent. Generators that enumerate each pair at most once build
// through it, so a dense graph costs O(edges) rather than O(edges·degree).
func (g *Graph) link(u, v int) {
	iu, iv := len(g.adj[u]), len(g.adj[v])
	g.adj[u] = append(g.adj[u], arc{to: int32(v), rev: int32(iv)})
	g.adj[v] = append(g.adj[v], arc{to: int32(u), rev: int32(iu)})
	g.edges++
}

// reserve gives every live node's (still empty) list room for c arcs out
// of one allocation. A list that outgrows its share reallocates alone.
func (g *Graph) reserve(c int) {
	slab := make([]arc, c*len(g.nodes))
	for i, id := range g.nodes {
		g.adj[id] = slab[i*c : i*c : (i+1)*c]
	}
}

// unlinkArc swap-deletes arc i from u's list, repointing the back index
// of the arc that takes its place.
func (g *Graph) unlinkArc(u, i int) {
	au := g.adj[u]
	last := len(au) - 1
	if i != last {
		moved := au[last]
		au[i] = moved
		g.adj[moved.to][moved.rev].rev = int32(i)
	}
	g.adj[u] = au[:last]
}

// AddEdge inserts the undirected edge {u, v}. It reports whether the edge
// was newly added (false for duplicates). It panics if either endpoint is
// absent or if u == v (self-conflicts are meaningless in the model).
func (g *Graph) AddEdge(u, v int) bool {
	if u == v {
		panic(fmt.Sprintf("graph: self-edge on node %d", u))
	}
	for _, id := range [2]int{u, v} {
		if !g.Has(id) {
			panic(fmt.Sprintf("graph: AddEdge endpoint %d absent", id))
		}
	}
	g.probes += min(len(g.adj[u]), len(g.adj[v]))
	if g.findArc(u, v) >= 0 {
		return false
	}
	g.link(u, v)
	return true
}

// HasEdge reports whether the edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool { return g.findArc(u, v) >= 0 }

// RemoveEdge deletes the edge {u, v} if present and reports whether it
// existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	i := g.findArc(u, v)
	if i < 0 {
		return false
	}
	j := int(g.adj[u][i].rev)
	g.unlinkArc(u, i)
	g.unlinkArc(v, j)
	g.edges--
	return true
}

// RemoveNode deletes node id and all incident edges. It reports whether
// the node existed. This is the "commit" operation of the model: a
// processed computation leaves the CC graph.
func (g *Graph) RemoveNode(id int) bool {
	if !g.Has(id) {
		return false
	}
	for _, a := range g.adj[id] {
		g.unlinkArc(int(a.to), int(a.rev))
	}
	g.edges -= len(g.adj[id])
	g.adj[id] = nil
	// Swap-remove from the dense list to keep sampling O(1).
	i := g.pos[id]
	last := len(g.nodes) - 1
	moved := g.nodes[last]
	g.nodes[i] = moved
	g.pos[moved] = i
	g.nodes = g.nodes[:last]
	g.pos[id] = -1
	return true
}

// Degree returns the number of neighbors of id, or 0 if absent.
func (g *Graph) Degree(id int) int { return len(g.arcs(id)) }

// Neighbors appends the neighbors of id to buf and returns it. The order
// is unspecified; callers needing determinism must sort.
func (g *Graph) Neighbors(id int, buf []int) []int {
	for _, a := range g.arcs(id) {
		buf = append(buf, int(a.to))
	}
	return buf
}

// SortedNeighbors returns the neighbors of id in ascending order.
func (g *Graph) SortedNeighbors(id int) []int {
	ns := g.Neighbors(id, nil)
	sort.Ints(ns)
	return ns
}

// EachNeighbor calls fn for every neighbor of id; iteration order is
// unspecified. fn must not mutate the graph.
func (g *Graph) EachNeighbor(id int, fn func(v int)) {
	for _, a := range g.arcs(id) {
		fn(int(a.to))
	}
}

// NumNodes returns the number of live nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of live edges.
func (g *Graph) NumEdges() int { return g.edges }

// AvgDegree returns 2|E|/|V|, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if len(g.nodes) == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(len(g.nodes))
}

// Nodes returns a copy of the live node IDs in unspecified order.
func (g *Graph) Nodes() []int {
	return append([]int(nil), g.nodes...)
}

// NodeAt returns the i-th live node in the internal dense order.
// Combined with rng sampling of indices it yields uniform node samples.
func (g *Graph) NodeAt(i int) int { return g.nodes[i] }

// SampleNodes returns m distinct live nodes chosen uniformly at random in
// random order — the length-m prefix of a random permutation of the live
// nodes, exactly the active-node selection of the paper's model. If m
// exceeds the number of live nodes, all nodes are returned in random
// order.
func (g *Graph) SampleNodes(r *rng.Rand, m int) []int {
	n := len(g.nodes)
	if m > n {
		m = n
	}
	idx := r.PermPrefix(n, m)
	out := make([]int, m)
	for i, j := range idx {
		out[i] = g.nodes[j]
	}
	return out
}

// Clone returns a deep copy sharing no state with g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:   make([][]arc, len(g.adj)),
		pos:   append([]int32(nil), g.pos...),
		nodes: append([]int(nil), g.nodes...),
		edges: g.edges,
	}
	// One backing array for every list; each is capped at its own length
	// so a later append reallocates instead of running into its neighbor.
	slab := make([]arc, 0, 2*g.edges)
	for _, id := range g.nodes {
		lo := len(slab)
		slab = append(slab, g.adj[id]...)
		c.adj[id] = slab[lo:len(slab):len(slab)]
	}
	return c
}

// CheckInvariants verifies internal consistency (symmetry of adjacency
// and its back indices, no duplicate or self arcs, dense-index
// agreement, edge count). It is used by tests and returns a descriptive
// error on the first violation found.
func (g *Graph) CheckInvariants() error {
	if len(g.adj) != len(g.pos) {
		return fmt.Errorf("graph: size mismatch adj=%d pos=%d", len(g.adj), len(g.pos))
	}
	live := 0
	for id, p := range g.pos {
		if p < 0 {
			if g.adj[id] != nil {
				return fmt.Errorf("graph: dead node %d keeps %d arcs", id, len(g.adj[id]))
			}
			continue
		}
		live++
		if int(p) >= len(g.nodes) || g.nodes[p] != id {
			return fmt.Errorf("graph: dense index broken at node %d", id)
		}
	}
	if live != len(g.nodes) {
		return fmt.Errorf("graph: %d live IDs but %d dense entries", live, len(g.nodes))
	}
	arcs := 0
	seen := make([]int, len(g.pos)) // seen[v] = u+1: v already met in u's list
	for _, u := range g.nodes {
		for i, a := range g.adj[u] {
			arcs++
			v := int(a.to)
			if u == v {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if !g.Has(v) {
				return fmt.Errorf("graph: edge {%d,%d} to dead node", u, v)
			}
			if seen[v] == u+1 {
				return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
			}
			seen[v] = u + 1
			if av := g.adj[v]; int(a.rev) >= len(av) || int(av[a.rev].to) != u || int(av[a.rev].rev) != i {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}", u, v)
			}
		}
	}
	if arcs != 2*g.edges {
		return fmt.Errorf("graph: edge count %d but %d endpoints", g.edges, arcs)
	}
	return nil
}
