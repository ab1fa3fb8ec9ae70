// Benchmarks regenerating the paper's figures and evaluation claims.
// Each figure has one or more benchmarks; custom metrics report the
// quantities the paper plots (conflict ratios, convergence rounds), so
// `go test -bench=. -benchmem` doubles as the experiment harness. See
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package repro

import (
	"testing"

	"repro/internal/analytic"
	"repro/internal/apps/boruvka"
	"repro/internal/apps/cluster"
	"repro/internal/apps/des"
	"repro/internal/apps/maxflow"
	"repro/internal/apps/mesh"
	"repro/internal/apps/sp"
	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/speculation"
)

// --- Fig. 1: one round of the optimistic-parallelization model -------

func BenchmarkFig1ModelRound(b *testing.B) {
	r := rng.New(1)
	base := graph.RandomWithAvgDegree(r, 2000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := base.Clone()
		s := &sched.Scheduler{G: g, R: r}
		b.StartTimer()
		s.Step(64)
	}
}

// --- Fig. 2: conflict-ratio curves, n=2000 d=16 ----------------------

// benchFig2Point measures r̄(m) at the paper's mid-curve point m = n/4
// and reports it as a custom metric.
func benchFig2Point(b *testing.B, g *graph.Graph, seed uint64) {
	r := rng.New(seed)
	m := g.NumNodes() / 4
	est := sched.NewEstimator(g, 1)
	last := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = est.ConflictRatio(r, m, 50)
	}
	b.ReportMetric(last, "conflict-ratio")
}

func BenchmarkFig2RandomGraph(b *testing.B) {
	benchFig2Point(b, graph.RandomWithAvgDegree(rng.New(2), 2000, 16), 3)
}

func BenchmarkFig2CliquesPlusIsolated(b *testing.B) {
	// Half the nodes in cliques of 33, half isolated: average degree 16.
	benchFig2Point(b, graph.CliquesPlusIsolated(30, 33, 1010), 4)
}

func BenchmarkFig2WorstCaseBound(b *testing.B) {
	last := 0.0
	for i := 0; i < b.N; i++ {
		for m := 1; m <= 2000; m += 40 {
			last = analytic.Cor2ConflictBound(2000, 16, float64(m))
		}
	}
	b.ReportMetric(last, "bound-at-n")
}

// --- Fig. 3 / §4.1: controller convergence ---------------------------

// benchController runs a controller from m0=2 on a static random graph
// and reports the §4.1 convergence metric (rounds to reach ±30% of μ).
func benchController(b *testing.B, mk func() control.Controller) {
	r := rng.New(5)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	mu := sched.TargetM(g, r.Split(), 0.20, 400, 1)
	conv := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := speculation.RunAdaptive(sched.NewStatic(g, r.Split()), mk(), 200)
		conv = float64(tr.ConvergenceStep(float64(mu), 0.30, 8))
	}
	b.ReportMetric(conv, "rounds-to-converge")
}

func BenchmarkFig3Hybrid(b *testing.B) {
	benchController(b, func() control.Controller {
		return control.NewHybrid(control.DefaultHybridConfig(0.20))
	})
}

func BenchmarkFig3ModelBased(b *testing.B) {
	benchController(b, func() control.Controller {
		return control.NewModelBased(0.20, 2)
	})
}

func BenchmarkFig3RecurrenceA(b *testing.B) {
	benchController(b, func() control.Controller {
		return control.NewRecurrenceA(0.20, 2)
	})
}

func BenchmarkFig3RecurrenceB(b *testing.B) {
	benchController(b, func() control.Controller {
		return control.NewRecurrenceB(0.20, 2)
	})
}

// --- §4.1 ablations ---------------------------------------------------

func benchAblation(b *testing.B, mutate func(*control.HybridConfig)) {
	r := rng.New(6)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	std := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := control.DefaultHybridConfig(0.20)
		mutate(&cfg)
		tr := speculation.RunAdaptive(sched.NewStatic(g, r.Split()), control.NewHybrid(cfg), 300)
		_, std = tr.SteadyStateStats(120)
	}
	b.ReportMetric(std, "steady-state-std")
}

func BenchmarkAblationFullHybrid(b *testing.B) {
	benchAblation(b, func(*control.HybridConfig) {})
}

func BenchmarkAblationNoWindow(b *testing.B) {
	benchAblation(b, func(c *control.HybridConfig) { c.T = 1; c.SmallMT = 1 })
}

func BenchmarkAblationNoDeadband(b *testing.B) {
	benchAblation(b, func(c *control.HybridConfig) {
		c.Alpha1 = 1e-9
		c.SmallMAlpha1 = 1e-9
	})
}

func BenchmarkAblationNoSmallMRegime(b *testing.B) {
	benchAblation(b, func(c *control.HybridConfig) { c.SmallMThreshold = 0 })
}

// --- Example 1 / Thm. 3 ------------------------------------------------

func BenchmarkExample1Expected(b *testing.B) {
	last := 0.0
	for i := 0; i < b.N; i++ {
		last = analytic.Example1Expected(32*32, 32, 33)
	}
	b.ReportMetric(last, "expected-committed")
}

func BenchmarkThm3Exact(b *testing.B) {
	last := 0.0
	for i := 0; i < b.N; i++ {
		for m := 1; m <= 2040; m += 40 {
			last = analytic.WorstCaseConflictRatio(2040, 16, m)
		}
	}
	b.ReportMetric(last, "bound-at-n")
}

// --- Phase tracking (§4.1 Delaunay claim) -----------------------------

func BenchmarkPhaseTracking(b *testing.B) {
	recovery := 0.0
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(7 + i))
		h := control.NewHybrid(control.DefaultHybridConfig(0.20))
		var mAfterJump []int
		for phase, spec := range []profile.PhaseSpec{
			{Rounds: 50, N: 2000, Degree: 64},
			{Rounds: 100, N: 2000, Degree: 4},
		} {
			g := graph.RandomWithAvgDegree(r, spec.N, spec.Degree)
			if tr := speculation.RunAdaptive(sched.NewStatic(g, r), h, spec.Rounds); phase == 1 {
				mAfterJump = tr.M
			}
		}
		// Rounds after the jump until m exceeds 5× the scarce-phase level.
		recovery = float64(len(mAfterJump))
		for j, m := range mAfterJump {
			if m > 90 { // 5 × μ(d=64) ≈ 5×18
				recovery = float64(j)
				break
			}
		}
	}
	b.ReportMetric(recovery, "rounds-to-retarget")
}

// --- End-to-end applications on the speculative runtime ---------------

func BenchmarkAppMeshRefine(b *testing.B) {
	ratio := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(11 + i))
		m := mesh.NewSquare(0, 1)
		for j := 0; j < 40; j++ {
			m.Insert(mesh.Point{X: 0.01 + 0.98*r.Float64(), Y: 0.01 + 0.98*r.Float64()})
		}
		ref := mesh.NewSpeculativeRefiner(m, mesh.Quality{MaxArea: 0.001},
			func(n int) int { return r.Intn(n) })
		speculation.RunAdaptive(ref.Executor(), control.NewHybrid(control.DefaultHybridConfig(0.25)), 1<<30)
		ratio = ref.Executor().OverallConflictRatio()
	}
	b.ReportMetric(ratio, "conflict-ratio")
}

func BenchmarkAppBoruvka(b *testing.B) {
	ratio := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(12 + i))
		g := boruvka.NewRandomConnected(r, 1000, 3000)
		s := boruvka.NewSpeculativeMSF(g, func(n int) int { return r.Intn(n) })
		speculation.RunAdaptive(s.Executor(), control.NewHybrid(control.DefaultHybridConfig(0.25)), 1<<30)
		ratio = s.Executor().OverallConflictRatio()
	}
	b.ReportMetric(ratio, "conflict-ratio")
}

func BenchmarkAppSurveyProp(b *testing.B) {
	ratio := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(13 + i))
		f := sp.NewRandom3SAT(r, 300, 750)
		st := sp.NewState(f, r.Split())
		s := sp.NewSpeculativeSP(st, 1e-4, func(n int) int { return r.Intn(n) })
		speculation.RunAdaptive(s.Executor(), control.NewHybrid(control.DefaultHybridConfig(0.25)), 1<<30)
		ratio = s.Executor().OverallConflictRatio()
	}
	b.ReportMetric(ratio, "conflict-ratio")
}

func BenchmarkAppClustering(b *testing.B) {
	ratio := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(14 + i))
		c := cluster.New(cluster.RandomPoints(r, 600))
		s := cluster.NewSpeculative(c, 1, func(n int) int { return r.Intn(n) })
		speculation.RunAdaptive(s.Executor(), control.NewHybrid(control.DefaultHybridConfig(0.25)), 1<<30)
		ratio = s.Executor().OverallConflictRatio()
	}
	b.ReportMetric(ratio, "conflict-ratio")
}

// --- Mesh refinement strategy ablation ---------------------------------

func benchMeshStrategy(b *testing.B, offCenter bool) {
	inserted := 0.0
	for i := 0; i < b.N; i++ {
		r := rng.New(41)
		m := mesh.NewSquare(0, 1)
		for j := 0; j < 60; j++ {
			m.Insert(mesh.Point{X: 0.01 + 0.98*r.Float64(), Y: 0.01 + 0.98*r.Float64()})
		}
		q := mesh.Quality{MinAngleDeg: 24, MaxArea: 0.002, OffCenter: offCenter}
		st := m.Refine(q, 0)
		inserted = float64(st.Inserted)
	}
	b.ReportMetric(inserted, "points-inserted")
}

func BenchmarkMeshCircumcenter(b *testing.B) { benchMeshStrategy(b, false) }
func BenchmarkMeshOffCenter(b *testing.B)    { benchMeshStrategy(b, true) }

// --- Smart start (§4 / Cor. 3) ----------------------------------------

func BenchmarkSmartStartConvergence(b *testing.B) {
	benchController(b, func() control.Controller {
		return control.NewHybridSmartStart(0.20, 2000, 16)
	})
}

// --- Ordered execution (§5 future work) -------------------------------

func BenchmarkAppEventSim(b *testing.B) {
	wasted := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := des.NewTandem(uint64(21+i), 0.2, 0.15, 0.25, 0.2)
		sim := des.NewSpeculativeSim(net, 200, 0.05)
		speculation.RunAdaptive(sim.Executor(), control.NewHybrid(control.DefaultHybridConfig(0.25)), 1<<30)
		wasted = sim.Executor().OverallConflictRatio()
	}
	b.ReportMetric(wasted, "wasted-ratio")
}

func BenchmarkOrderedRound(b *testing.B) {
	b.ReportAllocs()
	e := speculation.NewOrderedExecutor()
	defer e.Close()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 256; j++ {
			e.Add(benchOrderedTask{k: speculation.Key{Time: float64(j)},
				it: speculation.NewItem(int64(j))})
		}
		b.StartTimer()
		e.Round(256) // commits all 256: distinct items, no spawns
	}
}

type benchOrderedTask struct {
	k  speculation.Key
	it *speculation.Item
}

func (t benchOrderedTask) Key() speculation.Key { return t.k }
func (t benchOrderedTask) Run(ctx *speculation.Ctx) error {
	return ctx.Acquire(t.it)
}

// --- Work-set selection policies --------------------------------------

// benchWorksetPolicy drains a union of 5-cliques under the given
// selection policy (nil = the built-in LIFO) and reports the conflict
// ratio: the §2 ablation of the model's uniform draw.
func benchWorksetPolicy(b *testing.B, pick func() func(n int) int) {
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		g := graph.CliqueUnion(300, 5)
		wl := speculation.NewGraphWorkload(g)
		e := speculation.NewExecutor(pick())
		wl.Populate(e)
		for e.Pending() > 0 {
			e.Round(24)
		}
		ratio = e.OverallConflictRatio()
		e.Close()
	}
	b.ReportMetric(ratio, "conflict-ratio")
}

func BenchmarkWorksetRandom(b *testing.B) {
	benchWorksetPolicy(b, func() func(int) int { return rng.New(31).Intn })
}

func BenchmarkWorksetLIFO(b *testing.B) {
	benchWorksetPolicy(b, func() func(int) int { return nil })
}

func BenchmarkAppMaxflow(b *testing.B) {
	ratio := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(51 + i))
		net := maxflow.RandomNetwork(r, 100, 400, 30)
		s := maxflow.NewSpeculativePR(net, 0, net.N-1,
			func(n int) int { return r.Intn(n) })
		speculation.RunAdaptive(s.Executor(), control.NewHybrid(control.DefaultHybridConfig(0.25)), 1<<30)
		ratio = s.Executor().OverallConflictRatio()
	}
	b.ReportMetric(ratio, "conflict-ratio")
}

// --- Runtime micro-benchmarks -----------------------------------------

func BenchmarkExecutorRoundIndependent(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := speculation.NewExecutor(nil)
		for j := 0; j < 256; j++ {
			e.Add(speculation.TaskFunc(func(*speculation.Ctx) error { return nil }))
		}
		b.StartTimer()
		e.Round(256)
	}
}

func BenchmarkExecutorRoundContended(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := speculation.NewExecutor(nil)
		it := speculation.NewItem(0)
		for j := 0; j < 256; j++ {
			e.Add(speculation.TaskFunc(func(ctx *speculation.Ctx) error {
				return ctx.Acquire(it)
			}))
		}
		b.StartTimer()
		e.Round(256)
	}
}

func BenchmarkGreedyMIS(b *testing.B) {
	r := rng.New(15)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	order := g.SampleNodes(r, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.GreedyMISSize(g, order)
	}
}

func BenchmarkGraphSampleNodes(b *testing.B) {
	r := rng.New(16)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.SampleNodes(r, 64)
	}
}

func BenchmarkHybridObserve(b *testing.B) {
	h := control.NewHybrid(control.DefaultHybridConfig(0.25))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.2)
	}
}
