package control

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestPIGrowsWithoutConflicts(t *testing.T) {
	c := NewPI(0.25, 2)
	for w := 0; w < 20; w++ {
		for i := 0; i < c.T; i++ {
			c.Observe(0)
		}
	}
	if c.M() < 100 {
		t.Fatalf("m = %d after 20 conflict-free windows", c.M())
	}
}

func TestPIShrinksUnderConflicts(t *testing.T) {
	c := NewPI(0.25, 500)
	for w := 0; w < 20; w++ {
		for i := 0; i < c.T; i++ {
			c.Observe(0.9)
		}
	}
	if c.M() != 2 {
		t.Fatalf("m = %d, want floor", c.M())
	}
}

func TestPIAntiWindup(t *testing.T) {
	c := NewPI(0.25, 2)
	// Long saturation at the floor must not wind the integral so far
	// that recovery takes forever.
	for w := 0; w < 100; w++ {
		for i := 0; i < c.T; i++ {
			c.Observe(0.95)
		}
	}
	// Now the plant frees up: recovery within a bounded window count.
	windows := 0
	for c.M() < 64 && windows < 40 {
		for i := 0; i < c.T; i++ {
			c.Observe(0)
		}
		windows++
	}
	if c.M() < 64 {
		t.Fatalf("PI did not recover after saturation (m=%d after %d windows)",
			c.M(), windows)
	}
}

func TestPIConvergesOnRealGraph(t *testing.T) {
	r := rng.New(1)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	mu := TargetM(g, r.Split(), 0.20, 400, 1)
	c := NewPI(0.20, 2)
	tr := RunLoopStatic(g, r.Split(), c, 400)
	step := tr.ConvergenceStep(float64(mu), 0.30, 8)
	if step < 0 {
		t.Fatalf("PI never converged to μ=%d (tail %v)", mu, tr.MSeries().TailMean(20))
	}
	mean, std := tr.SteadyStateStats(100)
	if std > 0.5*mean {
		t.Errorf("PI steady state too noisy: %v ± %v", mean, std)
	}
}
