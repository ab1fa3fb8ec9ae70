package graph

import "sync"

// misScratchPool recycles MISScratch instances so the package-level
// GreedyMIS helpers are allocation-free in steady state without forcing
// every caller to thread a scratch through. Epoch marking makes a
// recycled scratch indistinguishable from a fresh one.
var misScratchPool = sync.Pool{New: func() any { return new(MISScratch) }}

// GreedyMIS processes the given node order and returns the greedy maximal
// independent set: a node is selected iff none of its neighbors was
// selected earlier in the order. This is exactly the paper's commit rule —
// a speculative task commits iff no conflicting task committed before it —
// so the selected set is the committed tasks and the rest of the order is
// the aborted ones.
//
// Nodes in order must be live in g; order may be any subset of the nodes
// (the "active nodes" of a round). Bookkeeping uses a pooled epoch-marked
// scratch, so only the two result slices are allocated.
func GreedyMIS(g *Graph, order []int) (selected, rejected []int) {
	s := misScratchPool.Get().(*MISScratch)
	selected, rejected = s.Partition(g, order)
	misScratchPool.Put(s)
	return selected, rejected
}

// GreedyMISSize returns only the size of the greedy MIS over the order,
// avoiding any allocation for Monte Carlo inner loops.
func GreedyMISSize(g *Graph, order []int) int {
	s := misScratchPool.Get().(*MISScratch)
	size := s.Size(g, order)
	misScratchPool.Put(s)
	return size
}

// MISScratch amortizes the selected-set bookkeeping across many greedy
// MIS computations on graphs whose node IDs stay below a shared bound.
// The zero value is ready; it is not safe for concurrent use.
type MISScratch struct {
	mark  []uint64
	epoch uint64
}

// begin sizes the mark array for node IDs below bound and opens a fresh
// epoch, invalidating all previous marks in O(1).
func (s *MISScratch) begin(bound int) {
	if len(s.mark) < bound {
		grown := make([]uint64, bound+bound/2+16)
		copy(grown, s.mark)
		s.mark = grown
	}
	s.epoch++
}

// Size computes GreedyMISSize(g, order) without per-call allocation.
func (s *MISScratch) Size(g *Graph, order []int) int {
	s.begin(len(g.pos))
	size := 0
	for _, v := range order {
		ok := true
		for _, a := range g.arcs(v) {
			if s.mark[a.to] == s.epoch {
				ok = false
				break
			}
		}
		if ok {
			s.mark[v] = s.epoch
			size++
		}
	}
	return size
}

// Partition computes GreedyMIS(g, order) reusing the scratch's epoch
// marking; only the result slices are allocated.
func (s *MISScratch) Partition(g *Graph, order []int) (selected, rejected []int) {
	s.begin(len(g.pos))
	for _, v := range order {
		ok := true
		for _, a := range g.arcs(v) {
			if s.mark[a.to] == s.epoch {
				ok = false
				break
			}
		}
		if ok {
			s.mark[v] = s.epoch
			selected = append(selected, v)
		} else {
			rejected = append(rejected, v)
		}
	}
	return selected, rejected
}

// NoEarlierNeighborCount returns the number of nodes in order that have
// no neighbor at all earlier in the order — the independent-set variant
// IS_m used in the proof of Thm. 2 (the quantity b_m averages). It is a
// lower bound on the greedy MIS size for the same order.
func NoEarlierNeighborCount(g *Graph, order []int) int {
	seen := make(map[int]bool, len(order))
	count := 0
	for _, v := range order {
		ok := true
		for _, a := range g.arcs(v) {
			if seen[int(a.to)] {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
		seen[v] = true
	}
	return count
}

// IsIndependentSet reports whether set is pairwise non-adjacent in g.
func IsIndependentSet(g *Graph, set []int) bool {
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for _, v := range set {
		for _, a := range g.arcs(v) {
			if in[int(a.to)] {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependentSet reports whether set is independent and no
// further node of g could be added (every non-member has a member
// neighbor). The "universe" is all live nodes of g.
func IsMaximalIndependentSet(g *Graph, set []int) bool {
	if !IsIndependentSet(g, set) {
		return false
	}
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for _, v := range g.nodes {
		if in[v] {
			continue
		}
		blocked := false
		for _, a := range g.arcs(v) {
			if in[int(a.to)] {
				blocked = true
				break
			}
		}
		if !blocked {
			return false
		}
	}
	return true
}
