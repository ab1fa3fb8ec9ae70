package control

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestTargetMParallelAgreesWithSerial checks that the bisection's worker
// count is a value, not a code path: sharded across 4 or 8 workers it
// locates the same μ as the engine run serially (one worker, the
// caller's goroutine), up to Monte Carlo noise around the threshold.
func TestTargetMParallelAgreesWithSerial(t *testing.T) {
	g := graph.RandomWithAvgDegree(rng.New(1), 600, 12)
	serial := TargetM(g, rng.New(2), 0.25, 400, 1)
	if serial < 2 {
		t.Fatalf("implausible serial μ = %d", serial)
	}
	for _, workers := range []int{4, 8} {
		par := TargetM(g, rng.New(3), 0.25, 400, workers)
		if math.Abs(float64(par-serial))/float64(serial) > 0.15 {
			t.Errorf("workers=%d: parallel μ = %d vs serial μ = %d", workers, par, serial)
		}
	}
	// Reproducibility: fixed (seed, reps, workers) is bit-identical.
	a := TargetM(g, rng.New(7), 0.2, 300, 3)
	b := TargetM(g, rng.New(7), 0.2, 300, 3)
	if a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
	if got := TargetM(graph.New(), rng.New(1), 0.2, 100, 4); got != 0 {
		t.Fatalf("empty graph μ = %d", got)
	}
}
