package control

import (
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Trajectory records a closed-loop run: per round, the processor count
// used and the conflict ratio observed.
type Trajectory struct {
	Controller string
	M          []int
	R          []float64
	Committed  []int
}

// Len returns the number of recorded rounds.
func (tr *Trajectory) Len() int { return len(tr.M) }

// MSeries converts the m trajectory to a stats.Series for reporting.
func (tr *Trajectory) MSeries() *stats.Series {
	s := &stats.Series{Name: tr.Controller + "/m"}
	for i, m := range tr.M {
		s.Append(float64(i), float64(m))
	}
	return s
}

// ConvergenceStep returns the first round index after which m stays
// within ±tol (relative) of target for at least hold consecutive rounds,
// or -1 if it never does. This is the §4.1 convergence metric ("in about
// 15 steps the controller converges close to the desired μ value").
func (tr *Trajectory) ConvergenceStep(target float64, tol float64, hold int) int {
	if target <= 0 {
		return -1
	}
	run := 0
	for i, m := range tr.M {
		if stats.RelErr(float64(m), target) <= tol {
			run++
			if run >= hold {
				return i - hold + 1
			}
		} else {
			run = 0
		}
	}
	return -1
}

// SteadyStateStats returns mean and standard deviation of m over the last
// tail rounds — the oscillation metric of the §4.1 ablations.
func (tr *Trajectory) SteadyStateStats(tail int) (mean, std float64) {
	if tail > len(tr.M) {
		tail = len(tr.M)
	}
	var acc stats.Accumulator
	for _, m := range tr.M[len(tr.M)-tail:] {
		acc.Add(float64(m))
	}
	return acc.Mean(), acc.StdDev()
}

// RunLoopStatic drives the controller against a *static* conflict-ratio
// oracle: each round the observed ratio is one random round at the
// current m on a fixed graph, drawn by the Monte Carlo engine from a
// snapshot taken once, without removing nodes. This isolates controller
// dynamics from graph drain (the Fig. 3 setting, where G_t is assumed
// quasi-static) and is the harness for convergence experiments; a
// phase-shifting workload is one call per phase with the same controller.
func RunLoopStatic(g *graph.Graph, r *rng.Rand, c Controller, rounds int) *Trajectory {
	est := sched.NewEstimator(g, 1)
	n := est.NumNodes()
	tr := &Trajectory{Controller: c.Name(),
		M: make([]int, 0, rounds), R: make([]float64, 0, rounds), Committed: make([]int, 0, rounds)}
	for round := 0; round < rounds; round++ {
		m := c.M()
		committed := int(est.ExpectedCommitted(r, m, 1))
		ratio := 0.0
		if mm := min(m, n); mm > 0 {
			ratio = float64(mm-committed) / float64(mm)
		}
		tr.M = append(tr.M, m)
		tr.R = append(tr.R, ratio)
		tr.Committed = append(tr.Committed, committed)
		c.Observe(ratio)
	}
	return tr
}

// TargetM finds μ — the largest m with r̄(m) ≤ rho — on a static graph by
// bisection over the Monte Carlo estimate of r̄ (Prop. 1 guarantees the
// bisection invariant). The graph is snapshotted once and every probe
// shards its reps across workers (≤ 0 means GOMAXPROCS).
func TargetM(g *graph.Graph, r *rng.Rand, rho float64, reps, workers int) int {
	est := sched.NewEstimator(g, workers)
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
