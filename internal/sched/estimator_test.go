package sched

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestParallelEstimatorsAgreeWithSerial checks that worker count is a
// value, not a code path: the engine sharded across 2 or 8 workers agrees
// with the same engine run serially (one worker, the caller's goroutine)
// at fixed seeds. The rng streams differ by construction, so agreement is
// within Monte Carlo tolerance.
func TestParallelEstimatorsAgreeWithSerial(t *testing.T) {
	g := graph.RandomWithAvgDegree(rng.New(1), 500, 12)
	const reps = 4000
	serialEst, parEst := NewEstimator(g, 1), NewEstimator(g, 4)
	for _, m := range []int{2, 25, 125, 400, 500} {
		serial := serialEst.ConflictRatio(rng.New(10), m, reps)
		for _, workers := range []int{2, 8} {
			par := NewEstimator(g, workers).ConflictRatio(rng.New(20), m, reps)
			if absDiff(par, serial) > 0.02 {
				t.Errorf("m=%d workers=%d: parallel ratio %.4f vs serial %.4f",
					m, workers, par, serial)
			}
		}
		sc := serialEst.ExpectedCommitted(rng.New(30), m, reps)
		pc := parEst.ExpectedCommitted(rng.New(40), m, reps)
		if sc > 0 && absDiff(pc, sc)/sc > 0.02 {
			t.Errorf("m=%d: parallel committed %.3f vs serial %.3f", m, pc, sc)
		}
	}
}

func TestParallelDistAgreesWithSerial(t *testing.T) {
	g := graph.RandomWithAvgDegree(rng.New(2), 400, 16)
	const reps = 6000
	serialEst, parEst := NewEstimator(g, 1), NewEstimator(g, 4)
	for _, m := range []int{4, 32, 128} {
		sMean, sStd := serialEst.ConflictRatioDist(rng.New(5), m, reps)
		pMean, pStd := parEst.ConflictRatioDist(rng.New(6), m, reps)
		if absDiff(pMean, sMean) > 0.02 {
			t.Errorf("m=%d: mean %.4f vs %.4f", m, pMean, sMean)
		}
		if absDiff(pStd, sStd) > 0.02 {
			t.Errorf("m=%d: std %.4f vs %.4f", m, pStd, sStd)
		}
	}
}

// TestParallelEstimatorDeterminism pins the (seed, reps, workers)
// reproducibility contract for the engine's public methods.
func TestParallelEstimatorDeterminism(t *testing.T) {
	g := graph.RandomWithAvgDegree(rng.New(3), 300, 10)
	for _, workers := range []int{1, 3, 7} {
		e1 := NewEstimator(g, workers)
		e2 := NewEstimator(g, workers)
		if a, b := e1.ConflictRatio(rng.New(9), 77, 200), e2.ConflictRatio(rng.New(9), 77, 200); a != b {
			t.Fatalf("workers=%d: ConflictRatio %v != %v", workers, a, b)
		}
		m1, s1 := e1.ConflictRatioDist(rng.New(9), 77, 200)
		m2, s2 := e2.ConflictRatioDist(rng.New(9), 77, 200)
		if m1 != m2 || s1 != s2 {
			t.Fatalf("workers=%d: Dist (%v,%v) != (%v,%v)", workers, m1, s1, m2, s2)
		}
	}
}

// TestEstimatorSnapshotIndependence verifies the CSR snapshot decouples
// the estimator from later graph mutation.
func TestEstimatorSnapshotIndependence(t *testing.T) {
	g := graph.RandomWithAvgDegree(rng.New(4), 200, 8)
	e := NewEstimator(g, 2)
	before := e.ConflictRatio(rng.New(1), 50, 500)
	for g.NumNodes() > 0 {
		g.RemoveNode(g.NodeAt(0))
	}
	after := e.ConflictRatio(rng.New(1), 50, 500)
	if before != after {
		t.Fatalf("snapshot leaked graph mutation: %v vs %v", before, after)
	}
}

func TestEstimatorEdgeCases(t *testing.T) {
	empty := graph.New()
	e := NewEstimator(empty, 4)
	if got := e.ConflictRatio(rng.New(1), 10, 50); got != 0 {
		t.Fatalf("empty graph ratio = %v", got)
	}
	if got := e.ExpectedCommitted(rng.New(1), 10, 50); got != 0 {
		t.Fatalf("empty graph committed = %v", got)
	}
	g := graph.NewWithNodes(5)
	e = NewEstimator(g, 3)
	if got := e.ConflictRatio(rng.New(1), 0, 50); got != 0 {
		t.Fatalf("m=0 ratio = %v", got)
	}
	// Edgeless graph: nothing ever conflicts, even with m > n.
	if got := e.ConflictRatio(rng.New(1), 50, 50); got != 0 {
		t.Fatalf("edgeless ratio = %v", got)
	}
	if got := e.ExpectedCommitted(rng.New(1), 50, 50); got != 5 {
		t.Fatalf("edgeless committed = %v, want 5", got)
	}
	// reps ≤ 0 panics in every estimator, whatever m is.
	for name, call := range map[string]func(){
		"ConflictRatio":         func() { e.ConflictRatio(rng.New(1), 2, 0) },
		"ConflictRatio m=0":     func() { e.ConflictRatio(rng.New(1), 0, 0) },
		"ExpectedCommitted":     func() { e.ExpectedCommitted(rng.New(1), 2, 0) },
		"ExpectedCommitted m=0": func() { e.ExpectedCommitted(rng.New(1), 0, -1) },
		"ConflictRatioDist":     func() { e.ConflictRatioDist(rng.New(1), 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with too few reps did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestConflictRatioMCBoundaries: on K5 one active node commits per round,
// so r̄(0) = r̄(1) = 0 and m beyond n clamps to r̄(5) = 4/5 exactly, at one
// worker and at several.
func TestConflictRatioMCBoundaries(t *testing.T) {
	for _, workers := range []int{1, 3} {
		k5 := NewEstimator(graph.Complete(5), workers)
		if got := k5.ConflictRatio(rng.New(9), 0, 10); got != 0 {
			t.Errorf("workers=%d m=0: %v", workers, got)
		}
		if got := k5.ConflictRatio(rng.New(9), 1, 10); got != 0 {
			t.Errorf("workers=%d m=1: %v", workers, got)
		}
		if got := k5.ConflictRatio(rng.New(9), 50, 200); !almostEq(got, 4.0/5.0, 1e-9) {
			t.Errorf("workers=%d clamped m: %v want 0.8", workers, got)
		}
	}
}

// TestParallelCurveMatchesPointwise checks an r̄(m) curve drawn from one
// multi-worker snapshot against the exact oracle at every point, on a
// tiny graph.
func TestParallelCurveMatchesPointwise(t *testing.T) {
	g := graph.CliqueUnion(8, 3) // two K4s: exactly enumerable
	est := NewEstimator(g, 3)
	r := rng.New(11)
	for _, m := range []int{1, 2, 4, 8} {
		got, exact := est.ConflictRatio(r, m, 20000), ExactConflictRatio(g, m)
		if absDiff(got, exact) > 0.02 {
			t.Errorf("m=%d: curve %.4f vs exact %.4f", m, got, exact)
		}
	}
}

// --- benchmarks: the CSR engine by worker count ----------------------

// benchGraph is the Fig. 2 graph named in the issue: n=2000, d=16,
// probing m = n/4 (matching the root-level BenchmarkFig2RandomGraph).
//
// benchReps must be large enough that each worker's shard amortizes the
// goroutine fan-out; at the original reps=50 every worker count ran in
// the same ~1ms because per-shard work was dwarfed by spawn overhead,
// so the w1/w2/w4/w8 sub-benchmarks reported no scaling at all.
const benchReps = 2000

func BenchmarkConflictRatioMCParallel(b *testing.B) {
	g := graph.RandomWithAvgDegree(rng.New(2), 2000, 16)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			est := NewEstimator(g, workers)
			r := rng.New(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est.ConflictRatio(r, 500, benchReps)
			}
		})
	}
}
