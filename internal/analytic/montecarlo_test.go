package analytic_test

// The Monte Carlo checks of Thms. 2–3 live in an external package: the
// estimator's package, sched, imports analytic through speculation and
// control.

import (
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Thm. 3 against Monte Carlo on the actual K^n_d graph.
func TestEMCliqueUnionMatchesMonteCarlo(t *testing.T) {
	r := rng.New(1)
	const n, d = 60, 5
	est := sched.NewEstimator(graph.CliqueUnion(n, d), 1)
	for _, m := range []int{1, 5, 10, 20, 40, 60} {
		exact := analytic.EMCliqueUnion(n, d, m)
		mc := est.ExpectedCommitted(r, m, 4000)
		if math.Abs(exact-mc) > 0.12 {
			t.Errorf("m=%d: exact %v, MC %v", m, exact, mc)
		}
	}
}

// Thm. 2: K^n_d minimizes EM_m among graphs with the same n and d.
func TestWorstCaseExactIsWorst(t *testing.T) {
	r := rng.New(2)
	const n, d = 60, 5
	rivals := []*graph.Graph{
		graph.RandomGNM(r, n, n*d/2),
		graph.Grid2D(6, 10), // d=2·(2·60-6-10)/60 != 5; skip degree-mismatched
	}
	// Only compare rivals with matching average degree.
	for i, g := range rivals {
		if math.Abs(g.AvgDegree()-float64(d)) > 1e-9 {
			continue
		}
		est := sched.NewEstimator(g, 1)
		for _, m := range []int{5, 15, 30, 45} {
			worst := analytic.EMCliqueUnion(n, d, m)
			mc := est.ExpectedCommitted(r, m, 3000)
			if mc < worst-0.15 {
				t.Errorf("rival %d m=%d: EM %v below worst-case %v", i, m, mc, worst)
			}
		}
	}
}
