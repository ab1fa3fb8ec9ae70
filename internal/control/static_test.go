package control_test

// The tests here measure controllers against the sched model: μ from
// sched.TargetM, and drives of the model's static round (sched.Static,
// the Fig. 3 setting) through speculation.Drive. They live in an
// external package because sched imports control through speculation.

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/speculation"
)

// static drives c for rounds rounds of the model's static round on g.
func static(g *graph.Graph, r *rng.Rand, c control.Controller, rounds int) *speculation.AdaptiveResult {
	return speculation.RunAdaptive(sched.NewStatic(g, r), c, rounds)
}

// Smart start must converge strictly faster than the cold start on the
// paper's Fig. 3 setting.
func TestSmartStartBeatsColdStart(t *testing.T) {
	r := rng.New(1)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	rho := 0.20
	mu := float64(sched.TargetM(g, r.Split(), rho, 400, 1))

	cold := control.NewHybrid(control.DefaultHybridConfig(rho))
	trCold := static(g, r.Split(), cold, 200)
	stepCold := trCold.ConvergenceStep(mu, 0.30, 8)

	smart := control.NewHybridSmartStart(rho, 2000, 16)
	trSmart := static(g, r.Split(), smart, 200)
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

func TestGuaranteedM(t *testing.T) {
	// The guaranteed allocation must keep the measured ratio within rho
	// even on the true worst-case graph.
	r := rng.New(3)
	const n, d = 2040, 16
	for _, rho := range []float64{0.15, 0.25} {
		m := control.GuaranteedM(rho, n, d)
		if m < 1 {
			t.Fatalf("degenerate m = %d", m)
		}
		measured := sched.NewEstimator(graph.CliqueUnion(n, d), 1).ConflictRatio(r, m, 2000)
		if measured > rho+0.03 {
			t.Errorf("rho=%v: guaranteed m=%d measured %v on K^n_d", rho, m, measured)
		}
	}
	// rho ≥ 1-ish: everything is allowed.
	if m := control.GuaranteedM(0.999, 100, 4); m != 100 {
		t.Errorf("near-1 rho: m = %d, want n", m)
	}
}

func TestModelBasedOnRealGraph(t *testing.T) {
	r := rng.New(1)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	mu := sched.TargetM(g, r.Split(), 0.20, 400, 1)
	c := control.NewModelBased(0.20, 2)
	tr := static(g, r.Split(), c, 300)
	step := tr.ConvergenceStep(float64(mu), 0.30, 8)
	if step < 0 {
		tail, _ := tr.SteadyStateStats(20)
		t.Fatalf("model-based never converged to μ=%d (tail mean %v)", mu, tail)
	}
	if step > 60 {
		t.Errorf("model-based took %d rounds", step)
	}
	mean, std := tr.SteadyStateStats(100)
	if std > 0.4*mean {
		t.Errorf("steady state too noisy: %v ± %v", mean, std)
	}
}

// The §5 payoff: after an abrupt phase change the model-based
// controller re-targets. We only require correctness and eventual
// convergence (the hybrid comparison lives in the benchmarks).
func TestModelBasedTracksPhaseShiftOnGraphs(t *testing.T) {
	r := rng.New(2)
	dense := graph.RandomWithAvgDegree(r, 2000, 64)
	sparse := graph.RandomWithAvgDegree(r, 2000, 4)
	c := control.NewModelBased(0.20, 2)
	// Phase 1: dense graph.
	static(dense, r.Split(), c, 100)
	mDense := c.M()
	// Phase 2: sparse graph (same controller state carried over).
	tr := static(sparse, r.Split(), c, 150)
	muSparse := sched.TargetM(sparse, r.Split(), 0.20, 300, 1)
	mean, _ := tr.SteadyStateStats(50)
	if mean < 2*float64(mDense) {
		t.Fatalf("after 16× parallelism increase m went %d → %.0f (μ=%d)",
			mDense, mean, muSparse)
	}
}

// Remark 1: with ρ = 0 the system collapses toward one processor (our
// clamp keeps it at m_min = 2) and cannot discover parallelism.
func TestRhoZeroCollapse(t *testing.T) {
	r := rng.New(2)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	cfg := control.DefaultHybridConfig(0.001) // ρ ≈ 0 (0 itself is invalid: div by ρ)
	h := control.NewHybrid(cfg)
	tr := static(g, r, h, 300)
	mean, _ := tr.SteadyStateStats(50)
	if mean > 10 {
		t.Fatalf("ρ≈0 should pin m near m_min, steady mean %v", mean)
	}
}

// The §4.1 headline: starting from m0 = 2 on a random CC graph, the
// hybrid converges close to μ in a small number of steps (~15), and the
// hybrid is faster than Recurrence A alone (Fig. 3).
func TestHybridConvergesFastAndBeatsRecurrenceA(t *testing.T) {
	r := rng.New(3)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	rho := 0.20
	mu := float64(sched.TargetM(g, r.Split(), rho, 500, 1))

	cfg := control.DefaultHybridConfig(rho)
	hybrid := control.NewHybrid(cfg)
	trH := static(g, r.Split(), hybrid, 300)
	stepH := trH.ConvergenceStep(mu, 0.30, 8)
	if stepH < 0 {
		tail, _ := trH.SteadyStateStats(20)
		t.Fatalf("hybrid never converged to μ=%v; tail mean %v", mu, tail)
	}
	if stepH > 60 {
		t.Errorf("hybrid took %d rounds to converge, expected a few tens", stepH)
	}

	recA := control.NewRecurrenceA(rho, 2)
	trA := static(g, r.Split(), recA, 300)
	stepA := trA.ConvergenceStep(mu, 0.30, 8)
	if stepA >= 0 && stepA < stepH {
		t.Errorf("Recurrence A (%d) converged before hybrid (%d)", stepA, stepH)
	}
	// Hybrid must be stable in steady state: relative std below 30%.
	mean, std := trH.SteadyStateStats(80)
	if std > 0.35*mean {
		t.Errorf("hybrid steady state too noisy: mean %v std %v", mean, std)
	}
	if g.NumNodes() != 2000 {
		t.Error("static run mutated the graph")
	}
}

// TestSimulationStaticAndTarget is the former internal/core test on the
// functions the facade wrapped: μ from TargetM lands in range, and a
// 200-round static drive settles near it without touching the graph.
func TestSimulationStaticAndTarget(t *testing.T) {
	g := graph.RandomWithAvgDegree(rng.New(3), 1000, 12)
	r := rng.New(4)
	mu := sched.TargetM(g, r, 0.25, 300, 1)
	if mu < 2 || mu > 1000 {
		t.Fatalf("μ = %d out of range", mu)
	}
	traj := static(g, r, control.NewHybrid(control.DefaultHybridConfig(0.25)), 200)
	if traj.Rounds != 200 {
		t.Fatalf("static run has %d rounds", traj.Rounds)
	}
	mean, _ := traj.SteadyStateStats(50)
	if math.Abs(mean-float64(mu)) > 0.5*float64(mu) {
		t.Errorf("steady state %v far from μ=%d", mean, mu)
	}
	if g.NumNodes() != 1000 {
		t.Error("static run mutated the graph")
	}
}

func TestConvergenceStepSemantics(t *testing.T) {
	tr := &speculation.AdaptiveResult{M: []int{2, 4, 50, 52, 49, 51, 50, 10, 50, 50}}
	// target 50, tol 10%, hold 3: first window of 3 consecutive
	// in-band values starts at index 2.
	if got := tr.ConvergenceStep(50, 0.10, 3); got != 2 {
		t.Fatalf("ConvergenceStep = %d, want 2", got)
	}
	// hold 6 is broken by the 10 at index 7 → never.
	if got := tr.ConvergenceStep(50, 0.10, 6); got != -1 {
		t.Fatalf("ConvergenceStep = %d, want -1", got)
	}
	if got := tr.ConvergenceStep(0, 0.1, 1); got != -1 {
		t.Fatal("nonpositive target must return -1")
	}
}

func TestTargetMProperties(t *testing.T) {
	r := rng.New(5)
	// Empty-ish and trivial graphs.
	if got := sched.TargetM(graph.Empty(50), r, 0.2, 100, 1); got != 50 {
		t.Fatalf("disconnected graph: μ = %d, want n", got)
	}
	if got := sched.TargetM(graph.New(), r, 0.2, 100, 1); got != 0 {
		t.Fatalf("empty graph: μ = %d, want 0", got)
	}
	// Complete graph: r̄(m) = (m-1)/m > 0.2 for m ≥ 2, so μ = 1.
	if got := sched.TargetM(graph.Complete(30), r, 0.2, 2000, 1); got != 1 {
		t.Fatalf("complete graph: μ = %d, want 1", got)
	}
	// Monotone in rho.
	g := graph.RandomWithAvgDegree(r, 500, 8)
	m20 := sched.TargetM(g, r, 0.20, 300, 1)
	m30 := sched.TargetM(g, r, 0.30, 300, 1)
	if m30 < m20 {
		t.Fatalf("μ(30%%)=%d < μ(20%%)=%d", m30, m20)
	}
}

// BenchmarkStaticLoop is the Fig. 3 harness at the paper's parameters:
// 400 controller rounds on one n = 2000, d = 16 snapshot.
func BenchmarkStaticLoop(b *testing.B) {
	g := graph.RandomWithAvgDegree(rng.New(1), 2000, 16)
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		static(g, r, control.NewHybrid(control.DefaultHybridConfig(0.20)), 400)
	}
}

// TestTargetMParallelAgreesWithSerial checks that the bisection's worker
// count is a value, not a code path: sharded across 4 or 8 workers it
// locates the same μ as the engine run serially (one worker, the
// caller's goroutine), up to Monte Carlo noise around the threshold.
func TestTargetMParallelAgreesWithSerial(t *testing.T) {
	g := graph.RandomWithAvgDegree(rng.New(1), 600, 12)
	serial := sched.TargetM(g, rng.New(2), 0.25, 400, 1)
	if serial < 2 {
		t.Fatalf("implausible serial μ = %d", serial)
	}
	for _, workers := range []int{4, 8} {
		par := sched.TargetM(g, rng.New(3), 0.25, 400, workers)
		if math.Abs(float64(par-serial))/float64(serial) > 0.15 {
			t.Errorf("workers=%d: parallel μ = %d vs serial μ = %d", workers, par, serial)
		}
	}
	// Reproducibility: fixed (seed, reps, workers) is bit-identical.
	a := sched.TargetM(g, rng.New(7), 0.2, 300, 3)
	b := sched.TargetM(g, rng.New(7), 0.2, 300, 3)
	if a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
	if got := sched.TargetM(graph.New(), rng.New(1), 0.2, 100, 4); got != 0 {
		t.Fatalf("empty graph μ = %d", got)
	}
}
