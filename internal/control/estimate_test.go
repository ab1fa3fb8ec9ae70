package control

import (
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sched"
)

func TestSmartStartInitialM(t *testing.T) {
	h := NewHybridSmartStart(0.25, 2000, 16)
	if h.M() != 58 { // 2000/(2·17)
		t.Fatalf("smart start m0 = %d, want 58", h.M())
	}
	// Enormous n clamps to MMax.
	h = NewHybridSmartStart(0.25, 10_000_000, 1)
	if h.M() != 1024 {
		t.Fatalf("clamped m0 = %d", h.M())
	}
}

// Smart start must converge strictly faster than the cold start on the
// paper's Fig. 3 setting.
func TestSmartStartBeatsColdStart(t *testing.T) {
	r := rng.New(1)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	rho := 0.20
	mu := float64(TargetM(g, r.Split(), rho, 400, 1))

	cold := NewHybrid(DefaultHybridConfig(rho))
	trCold := RunLoopStatic(g, r.Split(), cold, 200)
	stepCold := trCold.ConvergenceStep(mu, 0.30, 8)

	smart := NewHybridSmartStart(rho, 2000, 16)
	trSmart := RunLoopStatic(g, r.Split(), smart, 200)
	stepSmart := trSmart.ConvergenceStep(mu, 0.30, 8)

	if stepSmart < 0 {
		t.Fatal("smart start never converged")
	}
	if stepCold >= 0 && stepSmart > stepCold {
		t.Errorf("smart start (%d) slower than cold start (%d)", stepSmart, stepCold)
	}
	// The smart start's first-round conflict ratio must respect the
	// Cor. 3 promise (≤ ~21.3% + Monte Carlo noise).
	if trSmart.R[0] > 0.30 {
		t.Errorf("first-round ratio %v breaks the Cor. 3 promise", trSmart.R[0])
	}
}

func TestMaxAlphaFor(t *testing.T) {
	// Cor. 3 at α=1/2 gives ≈0.213 for large d, so maxAlphaFor(0.213)
	// should return ≈ 0.5.
	a := maxAlphaFor(0.213, 1e9)
	if math.Abs(a-0.5) > 0.01 {
		t.Fatalf("maxAlphaFor(0.213) = %v, want ≈0.5", a)
	}
	// Monotone in rho.
	if maxAlphaFor(0.10, 16) >= maxAlphaFor(0.30, 16) {
		t.Fatal("maxAlphaFor not monotone in rho")
	}
	// The returned α indeed satisfies the bound.
	for _, rho := range []float64{0.1, 0.2, 0.3} {
		a := maxAlphaFor(rho, 16)
		if b := analytic.Cor3ConflictBound(a, 16); b > rho+1e-9 {
			t.Errorf("bound(%v) = %v exceeds rho %v", a, b, rho)
		}
	}
	if maxAlphaFor(0, 16) != 0 {
		t.Fatal("rho=0 should give alpha 0")
	}
}

func TestGuaranteedM(t *testing.T) {
	// The guaranteed allocation must keep the measured ratio within rho
	// even on the true worst-case graph.
	r := rng.New(3)
	const n, d = 2040, 16
	for _, rho := range []float64{0.15, 0.25} {
		m := GuaranteedM(rho, n, d)
		if m < 1 {
			t.Fatalf("degenerate m = %d", m)
		}
		measured := sched.NewEstimator(graph.CliqueUnion(n, d), 1).ConflictRatio(r, m, 2000)
		if measured > rho+0.03 {
			t.Errorf("rho=%v: guaranteed m=%d measured %v on K^n_d", rho, m, measured)
		}
	}
	// rho ≥ 1-ish: everything is allowed.
	if m := GuaranteedM(0.999, 100, 4); m != 100 {
		t.Errorf("near-1 rho: m = %d, want n", m)
	}
}
