// Package maxflow implements maximum flow with Goldberg–Tarjan
// preflow-push — a staple of the Lonestar suite the paper builds its
// parallelism profiles on ([15]): active nodes (with positive excess)
// are discharged in any order, two discharges conflict when their
// neighborhoods overlap, and newly activated nodes are new work. As in
// Lonestar, every N relabels a global relabel resets the heights to
// exact residual distances, with the gap rule folded in (Cherkassky and
// Goldberg, Algorithmica 19, 1997); without it, excess that cannot
// reach the sink climbs back to the source one relabel at a time, Θ(N²)
// discharges on half the random networks. The speculative adapter runs
// the relabel in its commit phase, between two discharges, where no
// task holds a lock. The package provides the push–relabel engine, an
// independent Edmonds–Karp oracle, and the speculative adapter for the
// optimistic runtime.
package maxflow

import (
	"fmt"

	"repro/internal/rng"
)

// arc is one directed residual arc. rev indexes the paired reverse arc
// in adj[To].
type arc struct {
	To   int
	Rev  int
	Cap  int64
	Flow int64
}

func (a *arc) residual() int64 { return a.Cap - a.Flow }

// Network is a directed flow network on nodes 0..N-1.
type Network struct {
	N   int
	adj [][]arc
}

// NewNetwork returns an empty network with n nodes.
func NewNetwork(n int) *Network {
	if n < 2 {
		panic("maxflow: need at least two nodes")
	}
	return &Network{N: n, adj: make([][]arc, n)}
}

// AddEdge inserts a directed edge u→v with the given capacity (plus the
// implicit residual reverse arc). Parallel edges are allowed.
func (net *Network) AddEdge(u, v int, cap int64) {
	if u < 0 || u >= net.N || v < 0 || v >= net.N || u == v || cap < 0 {
		panic(fmt.Sprintf("maxflow: bad edge %d->%d cap %d", u, v, cap))
	}
	net.adj[u] = append(net.adj[u], arc{To: v, Rev: len(net.adj[v]), Cap: cap})
	net.adj[v] = append(net.adj[v], arc{To: u, Rev: len(net.adj[u]) - 1, Cap: 0})
}

// Clone deep-copies the network (flows included).
func (net *Network) Clone() *Network {
	c := NewNetwork(net.N)
	for u := range net.adj {
		c.adj[u] = append([]arc(nil), net.adj[u]...)
	}
	return c
}

// OutFlow returns the net flow leaving node u.
func (net *Network) OutFlow(u int) int64 {
	total := int64(0)
	for i := range net.adj[u] {
		total += net.adj[u][i].Flow
	}
	return total
}

// CheckFlow validates capacity constraints, antisymmetry, and
// conservation at every node except src and sink.
func (net *Network) CheckFlow(src, sink int) error {
	for u := range net.adj {
		for i := range net.adj[u] {
			a := &net.adj[u][i]
			if a.Flow > a.Cap {
				return fmt.Errorf("maxflow: arc %d->%d over capacity", u, a.To)
			}
			back := &net.adj[a.To][a.Rev]
			if back.Flow != -a.Flow {
				return fmt.Errorf("maxflow: antisymmetry broken on %d->%d", u, a.To)
			}
		}
	}
	for u := 0; u < net.N; u++ {
		if u == src || u == sink {
			continue
		}
		if net.OutFlow(u) != 0 {
			return fmt.Errorf("maxflow: conservation broken at %d (net %d)", u, net.OutFlow(u))
		}
	}
	return nil
}

// EdmondsKarp computes the max flow src→sink with BFS augmenting paths —
// the independent oracle. It mutates the network's flows and returns
// the flow value.
func EdmondsKarp(net *Network, src, sink int) int64 {
	total := int64(0)
	type hop struct{ node, arcIdx int }
	for {
		// BFS for a shortest augmenting path.
		parent := make([]hop, net.N)
		for i := range parent {
			parent[i] = hop{node: -1}
		}
		parent[src] = hop{node: src}
		queue := []int{src}
		for len(queue) > 0 && parent[sink].node == -1 {
			u := queue[0]
			queue = queue[1:]
			for i := range net.adj[u] {
				a := &net.adj[u][i]
				if a.residual() > 0 && parent[a.To].node == -1 {
					parent[a.To] = hop{node: u, arcIdx: i}
					queue = append(queue, a.To)
				}
			}
		}
		if parent[sink].node == -1 {
			return total
		}
		// Bottleneck.
		bottleneck := int64(1) << 62
		for v := sink; v != src; v = parent[v].node {
			a := &net.adj[parent[v].node][parent[v].arcIdx]
			if a.residual() < bottleneck {
				bottleneck = a.residual()
			}
		}
		for v := sink; v != src; v = parent[v].node {
			a := &net.adj[parent[v].node][parent[v].arcIdx]
			a.Flow += bottleneck
			net.adj[a.To][a.Rev].Flow -= bottleneck
		}
		total += bottleneck
	}
}

// PushRelabel computes the max flow with the sequential FIFO
// preflow-push algorithm, global relabels included. It mutates flows and
// returns the flow value.
func PushRelabel(net *Network, src, sink int) int64 {
	st := newPRState(net, src, sink)
	for queue := st.saturateSource(); len(queue) > 0; {
		queue = st.fifoStep(queue)
	}
	return st.excess[sink]
}

// fifoStep discharges the head of the FIFO queue, appends the nodes the
// discharge activated, runs a global relabel if one is due, and returns
// the queue.
func (st *prState) fifoStep(queue []int) []int {
	u := queue[0]
	queue = queue[1:]
	st.inQueue[u] = false
	for _, v := range st.discharge(u) {
		if !st.inQueue[v] {
			st.inQueue[v] = true
			queue = append(queue, v)
		}
	}
	st.relabelIfDue()
	return queue
}

// prState is the shared preflow-push state, used by both the sequential
// and the speculative drivers.
type prState struct {
	net       *Network
	src, sink int
	height    []int
	excess    []int64
	inQueue   []bool
	// relabels counts discharge's relabels since the last global relabel.
	relabels int
}

func newPRState(net *Network, src, sink int) *prState {
	if src == sink || src < 0 || sink < 0 || src >= net.N || sink >= net.N {
		panic("maxflow: bad src/sink")
	}
	st := &prState{
		net:     net,
		src:     src,
		sink:    sink,
		height:  make([]int, net.N),
		excess:  make([]int64, net.N),
		inQueue: make([]bool, net.N),
	}
	st.height[src] = net.N
	return st
}

// saturateSource pushes the source's full out-capacity and returns the
// initially active nodes.
func (st *prState) saturateSource() []int {
	var active []int
	for i := range st.net.adj[st.src] {
		a := &st.net.adj[st.src][i]
		if a.Cap == 0 {
			continue
		}
		delta := a.residual()
		if delta <= 0 {
			continue
		}
		a.Flow += delta
		st.net.adj[a.To][a.Rev].Flow -= delta
		st.excess[a.To] += delta
		st.excess[st.src] -= delta
		if a.To != st.sink && !st.inQueue[a.To] {
			st.inQueue[a.To] = true
			active = append(active, a.To)
		}
	}
	return active
}

// active reports whether u carries pushable excess.
func (st *prState) active(u int) bool {
	return u != st.src && u != st.sink && st.excess[u] > 0
}

// discharge repeatedly pushes and relabels u until its excess is gone,
// returning the nodes newly activated by its pushes. The operation
// reads and writes only u and its residual neighbors — the conflict
// neighborhood of the speculative version.
func (st *prState) discharge(u int) []int {
	var activated []int
	for st.excess[u] > 0 {
		pushed := false
		for i := range st.net.adj[u] {
			a := &st.net.adj[u][i]
			if a.residual() <= 0 || st.height[u] != st.height[a.To]+1 {
				continue
			}
			delta := st.excess[u]
			if r := a.residual(); r < delta {
				delta = r
			}
			a.Flow += delta
			st.net.adj[a.To][a.Rev].Flow -= delta
			st.excess[u] -= delta
			wasInactive := st.excess[a.To] == 0
			st.excess[a.To] += delta
			if wasInactive && st.active(a.To) {
				activated = append(activated, a.To)
			}
			pushed = true
			if st.excess[u] == 0 {
				break
			}
		}
		if pushed {
			continue
		}
		// Relabel: lift u above its lowest residual neighbor.
		minH := 1 << 30
		for i := range st.net.adj[u] {
			a := &st.net.adj[u][i]
			if a.residual() > 0 && st.height[a.To] < minH {
				minH = st.height[a.To]
			}
		}
		if minH == 1<<30 {
			// A node with excess always has a residual reverse arc.
			panic(fmt.Sprintf("maxflow: node %d has excess but no residual arcs", u))
		}
		st.height[u] = minH + 1
		st.relabels++
		if st.height[u] > 2*st.net.N {
			// Theory bounds heights by 2N−1; exceeding it means a bug.
			panic(fmt.Sprintf("maxflow: node %d lifted past 2N", u))
		}
	}
	return activated
}

// relabelIfDue runs a global relabel once N relabels have accumulated
// since the last one. Both drivers call it between two discharges.
func (st *prState) relabelIfDue() {
	if st.relabels >= st.net.N {
		st.globalRelabel()
	}
}

// globalRelabel sets every height to an exact residual distance
// (Cherkassky and Goldberg's global relabeling): a node that reaches the
// sink gets its distance to the sink; one that does not gets N plus its
// distance to the source — the gap rule folded in, since such a node can
// only return its excess; one that reaches neither holds no excess and
// gets 2N−1. The source stays at N. The result is a valid labeling, and
// no height falls, so the O(N²) relabel bound still holds.
func (st *prState) globalRelabel() {
	n := st.net.N
	for v := range st.height {
		st.height[v] = -1
	}
	st.height[st.src] = n
	st.labelFrom(st.sink, 0)
	st.labelFrom(st.src, n)
	for v, h := range st.height {
		if h < 0 {
			st.height[v] = 2*n - 1
		}
	}
	st.relabels = 0
}

// labelFrom gives every unlabeled node with a residual path to root the
// height root's plus its hop distance, by a breadth-first search over
// reverse residual arcs.
func (st *prState) labelFrom(root, base int) {
	st.height[root] = base
	q := []int{root}
	for i := 0; i < len(q); i++ {
		v := q[i]
		for j := range st.net.adj[v] {
			a := &st.net.adj[v][j]
			if st.height[a.To] < 0 && st.net.adj[a.To][a.Rev].residual() > 0 {
				st.height[a.To] = st.height[v] + 1
				q = append(q, a.To)
			}
		}
	}
}

// RandomNetwork generates a random layered DAG-ish network plus shortcut
// edges, with src 0 and sink n-1 — a standard maxflow test family.
func RandomNetwork(r *rng.Rand, n, extraEdges int, maxCap int64) *Network {
	if n < 2 {
		panic("maxflow: need at least 2 nodes")
	}
	net := NewNetwork(n)
	// A random Hamiltonian-ish backbone guarantees sink reachability.
	perm := r.Perm(n - 2)
	prev := 0
	for _, p := range perm {
		v := p + 1 // interior nodes 1..n-2
		net.AddEdge(prev, v, 1+int64(r.Intn(int(maxCap))))
		prev = v
	}
	net.AddEdge(prev, n-1, 1+int64(r.Intn(int(maxCap))))
	for i := 0; i < extraEdges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && v != 0 && u != n-1 {
			net.AddEdge(u, v, 1+int64(r.Intn(int(maxCap))))
		}
	}
	return net
}
