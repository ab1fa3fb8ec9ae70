// Package sched implements the paper's scheduler model (§2) on a CC
// graph: at each temporal step the system picks m live nodes uniformly at
// random (the active nodes), runs them "speculatively", and resolves
// conflicts in random commit order — a node aborts iff an earlier
// *committed* active node is its neighbor, so the committed set is the
// greedy maximal independent set of the induced subgraph in permutation
// order (Fig. 1). Committed nodes leave the graph; an application hook
// may then mutate the neighborhood (add nodes/edges), modelling amorphous
// data-parallel work generation.
//
// The package also provides the estimators for the conflict-ratio
// function r̄(m) of Eq. 1: the Monte Carlo Estimator for real graphs and
// exact enumeration for small ones (the test oracle it and Props. 1–2
// are checked against).
package sched

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Mutator is the application hook invoked after each round with the nodes
// that committed. Implementations typically add new nodes and conflict
// edges (newly generated work) or rewire neighborhoods. A nil Mutator
// leaves the graph to simply drain.
type Mutator interface {
	AfterRound(g *graph.Graph, committed []int, r *rng.Rand)
}

// MutatorFunc adapts a function to the Mutator interface.
type MutatorFunc func(g *graph.Graph, committed []int, r *rng.Rand)

// AfterRound implements Mutator.
func (f MutatorFunc) AfterRound(g *graph.Graph, committed []int, r *rng.Rand) {
	f(g, committed, r)
}

// RoundResult reports one temporal step of the model.
type RoundResult struct {
	Launched  int   // m: active nodes selected
	Committed []int // nodes that committed (greedy MIS in commit order)
	Aborted   []int // nodes that aborted (k of them)
}

// ConflictRatio returns k/m for the round, the paper's r_t. A round with
// no launched work has ratio 0.
func (rr RoundResult) ConflictRatio() float64 {
	if rr.Launched == 0 {
		return 0
	}
	return float64(len(rr.Aborted)) / float64(rr.Launched)
}

// Scheduler drives the round-based model over a mutable CC graph.
type Scheduler struct {
	G   *graph.Graph
	R   *rng.Rand
	Mut Mutator // optional

	// Rounds executed and cumulative counters, for reporting.
	Steps          int
	TotalLaunched  int
	TotalCommitted int
	TotalAborted   int
}

// New returns a scheduler over g using the given generator.
func New(g *graph.Graph, r *rng.Rand) *Scheduler {
	return &Scheduler{G: g, R: r}
}

// Step runs one temporal step with m processors: it selects min(m, live)
// active nodes uniformly at random, resolves conflicts in commit order,
// removes committed nodes from the graph, and invokes the mutator.
func (s *Scheduler) Step(m int) RoundResult {
	if m < 0 {
		panic(fmt.Sprintf("sched: negative m = %d", m))
	}
	order := s.G.SampleNodes(s.R, m)
	committed, aborted := graph.GreedyMIS(s.G, order)
	for _, v := range committed {
		s.G.RemoveNode(v)
	}
	if s.Mut != nil {
		s.Mut.AfterRound(s.G, committed, s.R)
	}
	s.Steps++
	s.TotalLaunched += len(order)
	s.TotalCommitted += len(committed)
	s.TotalAborted += len(aborted)
	return RoundResult{Launched: len(order), Committed: committed, Aborted: aborted}
}

// Done reports whether no work remains.
func (s *Scheduler) Done() bool { return s.G.NumNodes() == 0 }

// OverallConflictRatio returns aggregate aborted/launched across all
// steps so far (0 if nothing launched).
func (s *Scheduler) OverallConflictRatio() float64 {
	if s.TotalLaunched == 0 {
		return 0
	}
	return float64(s.TotalAborted) / float64(s.TotalLaunched)
}

// ExactConflictRatio computes r̄(m) exactly by enumerating every ordered
// selection of m distinct nodes (n!/(n−m)! orders). It is exponential and
// intended as a test oracle for graphs with at most ~9 nodes.
func ExactConflictRatio(g *graph.Graph, m int) float64 {
	n := g.NumNodes()
	if m <= 0 || n == 0 {
		return 0
	}
	if m > n {
		m = n
	}
	nodes := g.Nodes()
	used := make([]bool, n)
	order := make([]int, 0, m)
	// One epoch-marked scratch serves every leaf of the n!/(n−m)!-order
	// enumeration; allocating a fresh map per leaf dominated the oracle's
	// runtime before.
	var scratch graph.MISScratch
	var totalAborts, totalOrders int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == m {
			totalOrders++
			totalAborts += int64(m - scratch.Size(g, order))
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			order = append(order, nodes[i])
			rec(depth + 1)
			order = order[:len(order)-1]
			used[i] = false
		}
	}
	rec(0)
	return float64(totalAborts) / (float64(totalOrders) * float64(m))
}

// ExactExpectedAborts computes k̄(m) exactly by enumeration (same cost
// caveats as ExactConflictRatio).
func ExactExpectedAborts(g *graph.Graph, m int) float64 {
	if m <= 0 {
		return 0
	}
	n := g.NumNodes()
	if m > n {
		m = n
	}
	return ExactConflictRatio(g, m) * float64(m)
}
