package sched

import (
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/speculation"
)

// Static is the model's round on a quasi-static graph, the Fig. 3
// setting, as a speculation.Rounder: each Round(m) draws one random
// round at m on a snapshot taken once, without removing nodes. Driving
// it with speculation.Drive isolates controller dynamics from graph
// drain; a phase-shifting workload is one drive per phase with the same
// controller. It never drains, so every drive of it sets a sample cap.
type Static struct {
	est *Estimator
	r   *rng.Rand
}

// NewStatic snapshots g; rounds draw from r on the caller's goroutine.
func NewStatic(g *graph.Graph, r *rng.Rand) *Static {
	return &Static{est: NewEstimator(g, 1), r: r}
}

// Pending returns the snapshot's node count: the work never shrinks.
func (s *Static) Pending() int { return s.est.NumNodes() }

// Round launches min(m, n) nodes in a random commit order; those with
// no earlier committed neighbor commit, the rest abort.
func (s *Static) Round(m int) speculation.RoundStats {
	launched := s.est.clampM(m)
	committed := int(s.est.ExpectedCommitted(s.r, m, 1))
	return speculation.RoundStats{Launched: launched, Committed: committed, Aborted: launched - committed}
}

// TargetM finds μ — the largest m with r̄(m) ≤ rho — on a static graph by
// bisection over the Monte Carlo estimate of r̄ (Prop. 1 guarantees the
// bisection invariant). The graph is snapshotted once and every probe
// shards its reps across workers (≤ 0 means GOMAXPROCS).
func TargetM(g *graph.Graph, r *rng.Rand, rho float64, reps, workers int) int {
	est := NewEstimator(g, workers)
	n := est.NumNodes()
	if est.ConflictRatio(r, n, reps) <= rho { // also an empty graph's μ = 0
		return n
	}
	lo, hi := 1, n // r̄(1) = 0 ≤ rho always
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if est.ConflictRatio(r, mid, reps) <= rho {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
