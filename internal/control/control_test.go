package control

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultHybridConfig(0.25)
	if c.M0 != 2 || c.MMin != 2 || c.MMax != 1024 {
		t.Errorf("clamps %d/%d/%d differ from paper", c.M0, c.MMin, c.MMax)
	}
	if c.T != 4 {
		t.Errorf("T = %d, want 4", c.T)
	}
	if c.RMin != 0.03 || c.Alpha0 != 0.25 || c.Alpha1 != 0.06 {
		t.Errorf("thresholds %v/%v/%v differ from paper", c.RMin, c.Alpha0, c.Alpha1)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*HybridConfig){
		func(c *HybridConfig) { c.Rho = -0.1 },
		func(c *HybridConfig) { c.Rho = 1.0 },
		func(c *HybridConfig) { c.MMin = 0 },
		func(c *HybridConfig) { c.MMax = 1 },
		func(c *HybridConfig) { c.M0 = 0 },
		func(c *HybridConfig) { c.T = 0 },
		func(c *HybridConfig) { c.RMin = 0 },
		func(c *HybridConfig) { c.Alpha0 = 0.01 }, // below Alpha1
		func(c *HybridConfig) { c.SmallMT = 0 },
	}
	for i, mutate := range bad {
		c := DefaultHybridConfig(0.2)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// Feed a constant ratio and check the update rules fire exactly as the
// pseudo-code prescribes.
func TestHybridRecurrenceBFires(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.SmallMThreshold = 0 // pure Algorithm 1, no small-m special case
	cfg.M0 = 100
	h := NewHybrid(cfg)
	// r = 0.05: alpha = |1-0.25| = 0.75 > 0.25 → Recurrence B:
	// m = ceil(0.20/0.05 * 100) = 400.
	for i := 0; i < 4; i++ {
		h.Observe(0.05)
	}
	if h.M() != 400 {
		t.Fatalf("m = %d, want 400", h.M())
	}
	if h.UpdatesB != 1 || h.UpdatesA != 0 {
		t.Fatalf("updates B/A = %d/%d", h.UpdatesB, h.UpdatesA)
	}
}

func TestHybridRecurrenceAFires(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.SmallMThreshold = 0
	cfg.M0 = 100
	h := NewHybrid(cfg)
	// r = 0.16: alpha = 0.2 ∈ (0.06, 0.25] → Recurrence A:
	// m = ceil((1-0.16+0.20)*100) = 104.
	for i := 0; i < 4; i++ {
		h.Observe(0.16)
	}
	if h.M() != 104 {
		t.Fatalf("m = %d, want 104", h.M())
	}
	if h.UpdatesA != 1 || h.UpdatesB != 0 {
		t.Fatalf("updates B/A = %d/%d", h.UpdatesB, h.UpdatesA)
	}
}

func TestHybridDeadBandHolds(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.SmallMThreshold = 0
	cfg.M0 = 100
	h := NewHybrid(cfg)
	// r = 0.21: alpha = 0.05 ≤ 0.06 → no change (locality preservation).
	for i := 0; i < 4; i++ {
		h.Observe(0.21)
	}
	if h.M() != 100 {
		t.Fatalf("m = %d, want unchanged 100", h.M())
	}
	if h.UpdatesNone != 1 {
		t.Fatalf("UpdatesNone = %d", h.UpdatesNone)
	}
}

func TestHybridRMinFloorPreventsBlowup(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.SmallMThreshold = 0
	cfg.M0 = 50
	h := NewHybrid(cfg)
	// Zero observed conflicts: without the floor m would be infinite;
	// with r_min = 3% the jump is ρ/r_min = 6.67×.
	for i := 0; i < 4; i++ {
		h.Observe(0)
	}
	want := int(math.Ceil(0.20 / 0.03 * 50))
	if h.M() != want {
		t.Fatalf("m = %d, want %d", h.M(), want)
	}
}

func TestHybridClampsToMMax(t *testing.T) {
	cfg := DefaultHybridConfig(0.25)
	cfg.SmallMThreshold = 0
	cfg.M0 = 1000
	h := NewHybrid(cfg)
	for i := 0; i < 4; i++ {
		h.Observe(0)
	}
	if h.M() != 1024 {
		t.Fatalf("m = %d, want clamp at 1024", h.M())
	}
}

func TestHybridClampsToMMin(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.SmallMThreshold = 0
	cfg.M0 = 2
	h := NewHybrid(cfg)
	// Catastrophic conflicts drive m down but never below 2 (Remark 1).
	for w := 0; w < 5; w++ {
		for i := 0; i < 4; i++ {
			h.Observe(0.95)
		}
	}
	if h.M() != 2 {
		t.Fatalf("m = %d, want floor 2", h.M())
	}
}

func TestHybridWindowAveraging(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.SmallMThreshold = 0
	cfg.M0 = 100
	h := NewHybrid(cfg)
	// Three noisy observations then one: only the window average (0.05)
	// matters, and no update happens before the window closes.
	h.Observe(0.20)
	if h.M() != 100 {
		t.Fatal("update before window boundary")
	}
	h.Observe(0.0)
	h.Observe(0.0)
	h.Observe(0.0)
	if h.M() != 400 { // avg 0.05 → B fires as in TestHybridRecurrenceBFires
		t.Fatalf("m = %d, want 400", h.M())
	}
}

func TestHybridSmallMRegimeUsesLongerWindow(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.M0 = 5 // below SmallMThreshold = 20
	h := NewHybrid(cfg)
	for i := 0; i < cfg.T; i++ { // only the big-m window's worth
		h.Observe(0)
	}
	if h.M() != 5 {
		t.Fatalf("small-m regime should wait %d rounds, m changed to %d", cfg.SmallMT, h.M())
	}
	for i := cfg.T; i < cfg.SmallMT; i++ {
		h.Observe(0)
	}
	if h.M() <= 5 {
		t.Fatal("small-m window closed but no update")
	}
}

func TestRecurrenceAUpdate(t *testing.T) {
	c := NewRecurrenceA(0.20, 100)
	for i := 0; i < 4; i++ {
		c.Observe(0.05)
	}
	// m = ceil((1-0.05+0.20)*100) = 115: slow compared to B's 400.
	if c.M() != 115 {
		t.Fatalf("m = %d, want 115", c.M())
	}
}

func TestRecurrenceBUpdate(t *testing.T) {
	c := NewRecurrenceB(0.20, 100)
	for i := 0; i < 4; i++ {
		c.Observe(0.40)
	}
	// m = ceil(0.20/0.40*100) = 50.
	if c.M() != 50 {
		t.Fatalf("m = %d, want 50", c.M())
	}
}

func TestFixedNeverMoves(t *testing.T) {
	c := Fixed{Procs: 64}
	for i := 0; i < 100; i++ {
		c.Observe(0.9)
	}
	if c.M() != 64 {
		t.Fatal("fixed controller moved")
	}
}

func TestAIMD(t *testing.T) {
	c := NewAIMD(0.20, 10)
	for i := 0; i < 4; i++ {
		c.Observe(0.0)
	}
	if c.M() != 12 {
		t.Fatalf("additive increase: m = %d, want 12", c.M())
	}
	for i := 0; i < 4; i++ {
		c.Observe(0.9)
	}
	if c.M() != 6 {
		t.Fatalf("multiplicative decrease: m = %d, want 6", c.M())
	}
}

func TestBisectionConverges(t *testing.T) {
	r := rng.New(1)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	mu := TargetM(g, r.Split(), 0.20, 400, 1)
	c := NewBisection(0.20, 2)
	tr := RunLoopStatic(g, r, c, 400)
	mean, _ := tr.SteadyStateStats(60)
	if math.Abs(mean-float64(mu)) > 0.35*float64(mu) {
		t.Fatalf("bisection steady state %v far from μ=%d", mean, mu)
	}
}

// Remark 1: with ρ = 0 the system collapses toward one processor (our
// clamp keeps it at m_min = 2) and cannot discover parallelism.
func TestRhoZeroCollapse(t *testing.T) {
	r := rng.New(2)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	cfg := DefaultHybridConfig(0.001) // ρ ≈ 0 (0 itself is invalid: div by ρ)
	h := NewHybrid(cfg)
	tr := RunLoopStatic(g, r, h, 300)
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
	mu := float64(TargetM(g, r.Split(), rho, 500, 1))

	cfg := DefaultHybridConfig(rho)
	hybrid := NewHybrid(cfg)
	trH := RunLoopStatic(g, r.Split(), hybrid, 300)
	stepH := trH.ConvergenceStep(mu, 0.30, 8)
	if stepH < 0 {
		t.Fatalf("hybrid never converged to μ=%v; tail mean %v", mu, trH.MSeries().TailMean(20))
	}
	if stepH > 60 {
		t.Errorf("hybrid took %d rounds to converge, expected a few tens", stepH)
	}

	recA := NewRecurrenceA(rho, 2)
	trA := RunLoopStatic(g, r.Split(), recA, 300)
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
// 200-round RunLoopStatic settles near it without touching the graph.
func TestSimulationStaticAndTarget(t *testing.T) {
	g := graph.RandomWithAvgDegree(rng.New(3), 1000, 12)
	r := rng.New(4)
	mu := TargetM(g, r, 0.25, 300, 1)
	if mu < 2 || mu > 1000 {
		t.Fatalf("μ = %d out of range", mu)
	}
	traj := RunLoopStatic(g, r, NewHybrid(DefaultHybridConfig(0.25)), 200)
	if traj.Len() != 200 {
		t.Fatalf("static run has %d rounds", traj.Len())
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
	tr := &Trajectory{M: []int{2, 4, 50, 52, 49, 51, 50, 10, 50, 50}}
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
	if got := TargetM(graph.Empty(50), r, 0.2, 100, 1); got != 50 {
		t.Fatalf("disconnected graph: μ = %d, want n", got)
	}
	if got := TargetM(graph.New(), r, 0.2, 100, 1); got != 0 {
		t.Fatalf("empty graph: μ = %d, want 0", got)
	}
	// Complete graph: r̄(m) = (m-1)/m > 0.2 for m ≥ 2, so μ = 1.
	if got := TargetM(graph.Complete(30), r, 0.2, 2000, 1); got != 1 {
		t.Fatalf("complete graph: μ = %d, want 1", got)
	}
	// Monotone in rho.
	g := graph.RandomWithAvgDegree(r, 500, 8)
	m20 := TargetM(g, r, 0.20, 300, 1)
	m30 := TargetM(g, r, 0.30, 300, 1)
	if m30 < m20 {
		t.Fatalf("μ(30%%)=%d < μ(20%%)=%d", m30, m20)
	}
}

// BenchmarkRunLoopStatic is the Fig. 3 harness at the paper's parameters:
// 400 controller rounds on one n = 2000, d = 16 snapshot.
func BenchmarkRunLoopStatic(b *testing.B) {
	g := graph.RandomWithAvgDegree(rng.New(1), 2000, 16)
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunLoopStatic(g, r, NewHybrid(DefaultHybridConfig(0.20)), 400)
	}
}
