// Package profile computes parallelism profiles in the style of the
// Lonestar suite ([15] in the paper). On the model (Profile), each
// temporal step's available parallelism is the expected size of a
// maximal independent set of the current CC graph — the number of tasks
// a clairvoyant scheduler could commit at once. On a real executor
// (Drain) it is what ParaMeter measures: the tasks that commit in a
// round that launches every pending task.
//
// The paper motivates adaptive allocation with these profiles: "Delaunay
// mesh refinement can go from no parallelism to one thousand possible
// parallel tasks in just 30 temporal steps" (§4.1), so the package also
// describes synthetic phase-shifting workloads (PhaseSpec) that
// reproduce such abrupt swings for controller stress tests.
package profile

import (
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/speculation"
)

// Point is one step of a parallelism profile.
type Point struct {
	Step        int
	Live        int     // nodes remaining in the CC graph, or tasks pending
	Parallelism float64 // estimated E[|maximal independent set|], or tasks committed
	AvgDegree   float64
}

// Profile estimates available parallelism of the drain of graph g: at
// each step the expected greedy-MIS size of the current graph is
// estimated from misReps random permutations (sharded across workers,
// ≤ 0 = GOMAXPROCS; misReps must be positive), then one maximal
// independent set is committed and removed — the clairvoyant step,
// exactly the definition used by Kulkarni et al. to chart amorphous
// data-parallelism.
func Profile(g *graph.Graph, r *rng.Rand, misReps, maxSteps, workers int) []Point {
	s := &sched.Scheduler{G: g, R: r}
	var out []Point
	for step := 0; step < maxSteps && !s.Done(); step++ {
		n := g.NumNodes()
		out = append(out, Point{
			Step:        step,
			Live:        n,
			Parallelism: sched.NewEstimator(g, workers).ExpectedCommitted(r, n, misReps),
			AvgDegree:   g.AvgDegree(),
		})
		s.Step(n)
	}
	return out
}

// Drain measures the parallelism profile of a real executor the way
// ParaMeter does (Kulkarni et al., PPoPP 2009): each step launches every
// pending task in one round and records how many commit, until the
// work-set drains or maxSteps rounds have run. A task that commits with
// nothing left to do counts too. The commit count is the same one
// Algorithm 1's conflict ratio is computed from.
func Drain(x speculation.Rounder, maxSteps int) []Point {
	var out []Point
	for step := 0; step < maxSteps && x.Pending() > 0; step++ {
		pending := x.Pending()
		st := x.Round(pending)
		out = append(out, Point{Step: step, Live: pending, Parallelism: float64(st.Committed)})
	}
	return out
}

// PhaseSpec describes one phase of a synthetic phase-shifting workload:
// entering the phase replaces the CC graph with a fresh random graph of
// the phase's size and degree, so available parallelism jumps abruptly
// between phases (the "available parallelism can vary dramatically"
// scenario of §1 and §4.1).
type PhaseSpec struct {
	Rounds int     // how many controller rounds the phase lasts
	N      int     // CC graph size regenerated at phase entry
	Degree float64 // average degree of the phase's graph
}
