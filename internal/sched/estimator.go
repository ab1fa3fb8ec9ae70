package sched

import (
	"math"
	"runtime"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Estimator is the Monte Carlo engine for r̄(m) (Eq. 1) and EM_m(G) over
// one CSR snapshot of a CC graph, and the only sampler of the model: every
// estimate draws reps random length-m commit orders, runs greedy MIS over
// each and counts the rejections. Building it freezes the graph into flat
// adjacency arrays (graph.NewCSR) once; reusing one Estimator across many
// m values (curves, bisections, controller rounds) amortizes the snapshot
// to nothing.
//
// workers is a value, not a code path: reps shard across that many
// goroutines, each drawing from its own rng.Split stream into
// allocation-free epoch-marked scratch, and workers = 1 runs on the
// caller's goroutine. For a fixed (rng state, reps, workers) every method
// returns bit-identical values (see graph.(*CSR).MISMoments); changing the
// worker count re-draws the streams, giving a statistically equivalent
// but not bit-identical estimate.
//
// reps ≤ 0 panics in every method: an estimate from no samples is a
// caller bug, not a zero.
type Estimator struct {
	csr     *graph.CSR
	workers int
}

// NewEstimator snapshots g and returns an engine with the given worker
// count; workers ≤ 0 means GOMAXPROCS. The snapshot shares no state with
// g, so later mutation of g does not affect the estimator.
func NewEstimator(g *graph.Graph, workers int) *Estimator {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Estimator{csr: graph.NewCSR(g), workers: workers}
}

// NumNodes returns the number of nodes in the snapshot.
func (e *Estimator) NumNodes() int { return e.csr.NumNodes() }

// clampM applies the estimators' common m policy: non-positive m means no
// work, m beyond the snapshot saturates at n.
func (e *Estimator) clampM(m int) int {
	if m <= 0 {
		return 0
	}
	if n := e.csr.NumNodes(); m > n {
		return n
	}
	return m
}

// ConflictRatio estimates r̄(m) (Eq. 1). reps must be positive.
func (e *Estimator) ConflictRatio(r *rng.Rand, m, reps int) float64 {
	if reps <= 0 {
		panic("sched: Estimator.ConflictRatio requires positive reps")
	}
	mm := e.clampM(m)
	if mm == 0 {
		return 0
	}
	sum, _ := e.csr.MISMoments(r, mm, reps, e.workers)
	total := int64(reps) * int64(mm)
	return float64(total-sum) / float64(total)
}

// ConflictRatioDist estimates the mean and sample standard deviation of
// the per-round conflict ratio r_t at the given m — the §4.1 observation
// that "r_t can have a big variance, especially when m is small" is the
// reason Algorithm 1 averages over T rounds and tunes small m separately.
// reps must exceed 1.
//
// Both moments derive from the exact integer sums Σs and Σs² of the
// per-rep MIS sizes, so the reduction order cannot perturb the result.
func (e *Estimator) ConflictRatioDist(r *rng.Rand, m, reps int) (mean, std float64) {
	if reps <= 1 {
		panic("sched: Estimator.ConflictRatioDist requires reps > 1")
	}
	mm := e.clampM(m)
	if mm == 0 {
		return 0, 0
	}
	sum, sumSq := e.csr.MISMoments(r, mm, reps, e.workers)
	// Per-rep ratio x_i = (mm − s_i)/mm: convert the size moments.
	fm := float64(mm)
	n := float64(reps)
	sumX := n - float64(sum)/fm
	sumXX := (n*fm*fm - 2*fm*float64(sum) + float64(sumSq)) / (fm * fm)
	mean = sumX / n
	variance := (sumXX - sumX*sumX/n) / (n - 1) // unbiased, matching stats.Accumulator
	if variance < 0 {
		variance = 0 // guard the subtraction against rounding
	}
	return mean, math.Sqrt(variance)
}

// ExpectedCommitted estimates EM_m(G), the expected committed count per
// round (Thm. 2's quantity); at m = n it is E[|greedy MIS|] over full
// random permutations, the parallelism Turán's bound (Thm. 1) promises.
// reps must be positive; with reps = 1 it is the committed count of one
// random round.
func (e *Estimator) ExpectedCommitted(r *rng.Rand, m, reps int) float64 {
	sum, _ := e.csr.MISMoments(r, e.clampM(m), reps, e.workers)
	return float64(sum) / float64(reps)
}
