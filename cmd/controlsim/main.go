// Command controlsim regenerates the controller experiments of §4:
//
//	controlsim -fig3       trajectories m_t of the hybrid Algorithm 1 vs
//	                       Recurrence A alone on random CC graphs
//	                       (n = 2000, ρ = 20%), the Fig. 3 comparison;
//	controlsim -converge   convergence-steps table across degrees and
//	                       targets (the §4.1 "~15 steps" claim);
//	controlsim -ablate     ablation of the design choices listed in
//	                       §4.1 (window averaging, dead-band, small-m
//	                       regime, hybridization);
//	controlsim -phases     tracking of abrupt parallelism changes (the
//	                       Delaunay 0→1000-in-30-steps scenario of §4.1);
//	controlsim -smartstart cold start vs the §4 Cor. 3 smart initial m
//	                       and the pure-theory guaranteed allocation;
//	controlsim -efficiency adaptive vs fixed-m cost comparison (time vs
//	                       wasted work vs power proxy, §1 motivation);
//	controlsim -rhosweep   makespan/energy versus the target ρ — locates
//	                       the knee behind Remark 1's ρ ∈ [20%, 30%].
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/speculation"
	"repro/internal/trace"
	"repro/internal/workload"
)

// mustCtrl instantiates a controller through the shared registry; names
// here are compile-time constants, so failure is a programming error.
func mustCtrl(name string, p workload.ControllerParams) control.Controller {
	c, err := workload.NewController(name, p)
	if err != nil {
		panic(err)
	}
	return c
}

func main() {
	fig3 := flag.Bool("fig3", false, "Fig. 3 trajectory comparison")
	converge := flag.Bool("converge", false, "convergence table (§4.1)")
	ablate := flag.Bool("ablate", false, "controller ablations (§4.1)")
	phases := flag.Bool("phases", false, "abrupt-phase tracking")
	smart := flag.Bool("smartstart", false, "cold vs Cor.3 smart start vs theory-only")
	efficiency := flag.Bool("efficiency", false, "adaptive vs fixed-m cost comparison")
	rhoSweep := flag.Bool("rhosweep", false, "makespan/energy vs target ρ (Remark 1)")
	n := flag.Int("n", 2000, "CC graph size")
	rho := flag.Float64("rho", 0.20, "target conflict ratio")
	rounds := flag.Int("rounds", 120, "rounds per run")
	seed := flag.Uint64("seed", 1, "PRNG seed")
	plot := flag.Bool("plot", false, "render ASCII plots")
	par := flag.Int("parallel", runtime.NumCPU(),
		"executor workers, round pool and async alike (0 = GOMAXPROCS)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"Monte Carlo estimation workers for the μ bisection probes")
	async := flag.Bool("async", false,
		"-efficiency only: drive the CC workload barrier-free with sliding-window control")
	colored := flag.Bool("colored", false,
		"-efficiency only: drive the stable-conflict workload in colored mode")
	window := flag.Int("commit-window", 0,
		"fixed async commit-window size (0 = track the controller's m)")
	flag.Parse()

	if *async && *colored {
		fmt.Fprintln(os.Stderr, "-async and -colored are mutually exclusive")
		os.Exit(2)
	}

	switch {
	case *converge:
		runConverge(*n, *seed, *workers)
	case *ablate:
		runAblate(*n, *rho, *seed, *workers)
	case *phases:
		runPhases(*rho, *seed)
	case *smart:
		runSmartStart(*n, *rho, *seed, *workers)
	case *efficiency:
		runEfficiency(*n, *rho, *seed, *par, *async, *colored, *window)
	case *rhoSweep:
		runRhoSweep(*n, *seed, *par)
	default:
		_ = fig3
		runFig3(*n, *rho, *rounds, *seed, *plot, *workers)
	}
}

func mustWrite(tbl *trace.Table) {
	if err := tbl.WriteTSV(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runFig3 reproduces Fig. 3: two random graphs (different degrees), the
// hybrid controller vs Recurrence A alone, m₀ = 2.
func runFig3(n int, rho float64, rounds int, seed uint64, plot bool, workers int) {
	r := rng.New(seed)
	for _, d := range []float64{16, 64} {
		g := graph.RandomWithAvgDegree(r, n, d)
		mu := control.TargetM(g, r.Split(), rho, 400, workers)
		fmt.Printf("Fig. 3: n=%d d=%.0f ρ=%.0f%% — μ (bisection reference) = %d\n",
			n, d, rho*100, mu)

		hybrid := mustCtrl("hybrid", workload.ControllerParams{Rho: rho})
		trH := control.RunLoopStatic(g, r.Split(), hybrid, rounds)
		recA := mustCtrl("recurrence-a", workload.ControllerParams{Rho: rho})
		trA := control.RunLoopStatic(g, r.Split(), recA, rounds)

		tbl := trace.NewTable(fmt.Sprintf("fig3-trajectories-d%.0f", d),
			"round", "hybrid_m", "recurrenceA_m", "mu")
		for i := 0; i < rounds; i++ {
			tbl.AddRow(float64(i), float64(trH.M[i]), float64(trA.M[i]), float64(mu))
		}
		mustWrite(tbl)

		cH := trH.ConvergenceStep(float64(mu), 0.30, 8)
		cA := trA.ConvergenceStep(float64(mu), 0.30, 8)
		meanH, stdH := trH.SteadyStateStats(rounds / 3)
		fmt.Printf("hybrid: converged at round %d, steady m = %.1f ± %.1f\n", cH, meanH, stdH)
		meanA, stdA := trA.SteadyStateStats(rounds / 3)
		fmt.Printf("recurrence A: converged at round %d, steady m = %.1f ± %.1f\n\n", cA, meanA, stdA)

		if plot {
			p := trace.NewASCIIPlot(72, 18)
			p.XLabel = "round"
			p.YLabel = "m"
			p.SetX(tbl.Column(0))
			p.AddSeries("hybrid", tbl.Column(1))
			p.AddSeries("recurrence A", tbl.Column(2))
			p.AddSeries("mu", tbl.Column(3))
			if err := p.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}
}

// runConverge tabulates convergence steps across degrees and targets.
func runConverge(n int, seed uint64, workers int) {
	r := rng.New(seed)
	fmt.Println("§4.1 convergence: rounds from m₀=2 until m stays within ±30% of μ")
	tbl := trace.NewTable("convergence-steps",
		"d", "rho", "mu", "hybrid", "model_based", "recurrenceA", "recurrenceB", "bisection", "aimd")
	for _, d := range []float64{8, 16, 32, 64} {
		g := graph.RandomWithAvgDegree(r, n, d)
		for _, rho := range []float64{0.20, 0.25, 0.30} {
			mu := control.TargetM(g, r.Split(), rho, 400, workers)
			step := func(c control.Controller) float64 {
				tr := control.RunLoopStatic(g, r.Split(), c, 400)
				return float64(tr.ConvergenceStep(float64(mu), 0.30, 8))
			}
			row := []float64{d, rho, float64(mu)}
			for _, name := range []string{"hybrid", "model-based", "recurrence-a", "recurrence-b"} {
				row = append(row, step(mustCtrl(name, workload.ControllerParams{Rho: rho})))
			}
			tbl.AddRow(append(row, step(newBisection(rho, 2)), step(newAIMD(rho, 2)))...)
		}
	}
	mustWrite(tbl)
	fmt.Println("\n(-1 = never converged within 400 rounds)")
}

// runAblate quantifies each §4.1 design choice by steady-state
// oscillation and convergence speed.
func runAblate(n int, rho float64, seed uint64, workers int) {
	r := rng.New(seed)
	g := graph.RandomWithAvgDegree(r, n, 16)
	mu := control.TargetM(g, r.Split(), rho, 400, workers)
	fmt.Printf("Ablations on n=%d d=16 ρ=%.0f%% (μ=%d); 400 rounds each\n", n, rho*100, mu)

	variants := []struct {
		name string
		mk   func() control.Controller
	}{
		{"full-hybrid", func() control.Controller {
			return control.NewHybrid(control.DefaultHybridConfig(rho))
		}},
		{"no-window (T=1)", func() control.Controller {
			cfg := control.DefaultHybridConfig(rho)
			cfg.T = 1
			cfg.SmallMT = 1
			return control.NewHybrid(cfg)
		}},
		{"no-deadband (α1=0+)", func() control.Controller {
			cfg := control.DefaultHybridConfig(rho)
			cfg.Alpha1 = 1e-9
			cfg.SmallMAlpha1 = 1e-9
			return control.NewHybrid(cfg)
		}},
		{"no-small-m-regime", func() control.Controller {
			cfg := control.DefaultHybridConfig(rho)
			cfg.SmallMThreshold = 0
			return control.NewHybrid(cfg)
		}},
		{"B-only", func() control.Controller { return control.NewRecurrenceB(rho, 2) }},
		{"A-only", func() control.Controller { return control.NewRecurrenceA(rho, 2) }},
	}
	tbl := trace.NewTable("ablation",
		"variant", "converge_step", "steady_mean", "steady_std", "mean_ratio")
	for vi, v := range variants {
		tr := control.RunLoopStatic(g, r.Split(), v.mk(), 400)
		cs := tr.ConvergenceStep(float64(mu), 0.30, 8)
		mean, std := tr.SteadyStateStats(150)
		sumR := 0.0
		for _, x := range tr.R {
			sumR += x
		}
		tbl.AddRow(float64(vi), float64(cs), mean, std, sumR/float64(len(tr.R)))
		fmt.Printf("  [%d] %s\n", vi, v.name)
	}
	mustWrite(tbl)
}

// runSmartStart compares the cold start (m₀=2), the §4 Cor. 3 smart
// start (m₀ = n/(2(d+1))), and the pure-theory guaranteed allocation
// (largest m whose worst-case bound stays within ρ, no feedback).
func runSmartStart(n int, rho float64, seed uint64, workers int) {
	r := rng.New(seed)
	fmt.Printf("Smart start (Cor. 3) vs cold start, n=%d ρ=%.0f%%\n", n, rho*100)
	tbl := trace.NewTable("smart-start",
		"d", "mu", "cold_converge", "smart_converge", "smart_m0",
		"smart_first_ratio", "guaranteed_m")
	for _, d := range []float64{8, 16, 32, 64} {
		g := graph.RandomWithAvgDegree(r, n, d)
		mu := control.TargetM(g, r.Split(), rho, 400, workers)

		cold := control.NewHybrid(control.DefaultHybridConfig(rho))
		trCold := control.RunLoopStatic(g, r.Split(), cold, 300)

		smart := control.NewHybridSmartStart(rho, n, d)
		m0 := smart.M()
		trSmart := control.RunLoopStatic(g, r.Split(), smart, 300)

		tbl.AddRow(d, float64(mu),
			float64(trCold.ConvergenceStep(float64(mu), 0.30, 8)),
			float64(trSmart.ConvergenceStep(float64(mu), 0.30, 8)),
			float64(m0),
			trSmart.R[0],
			float64(control.GuaranteedM(rho, n, d)))
	}
	mustWrite(tbl)
	fmt.Println("\n(convergence −1 = never within 300 rounds; smart_first_ratio must stay ≤ ~0.213 per Cor. 3)")
}

// runEfficiency quantifies the paper's intro trade-off on the real
// speculative runtime: too many processors waste work and power, too
// few waste time; the adaptive controller balances both.
func runEfficiency(n int, rho float64, seed uint64, par int, async, colored bool, window int) {
	mode, dmode, wl := "rounds", speculation.ModeRound, "cc"
	if async {
		mode, dmode = "barrier-free", speculation.ModeAsync
	}
	if colored {
		// Both declaring workloads color (cc in a single super-round),
		// and a colored super-round takes no allocation, so every row
		// reads the same: m stops mattering. The synthetic
		// stable-conflict workload shows that over 24 super-rounds.
		mode, dmode, wl = "speculative→colored", speculation.ModeColored, "stable"
	}
	fmt.Printf("Adaptive vs fixed-m on a draining %s workload (n=%d, d=24, ρ=%.0f%%, %s)\n", wl, n, rho*100, mode)
	fmt.Println("rounds ≈ makespan; proc-rounds ≈ energy; efficiency = useful/total work")
	run := func(c control.Controller) *speculation.AdaptiveResult {
		// The synthetic workload comes from the shared registry — the
		// same construction the specd service's jobs use.
		w, err := workload.New(wl, workload.Params{Size: n, Seed: seed, Parallel: par, Degree: 24})
		if err != nil {
			panic(err)
		}
		defer w.Stepper.Close()
		res, dres, err := speculation.Collect(context.Background(), w.Stepper, c,
			speculation.Options{Mode: dmode, Window: window})
		if err != nil {
			panic(err)
		}
		if colored {
			fmt.Printf("# %s: learn-rounds=%d colored-rounds=%d colorings=%d fallbacks=%d colored-r=%.3f\n",
				c.Name(), dres.SpecRounds, dres.ColoredRounds, dres.Colorings,
				dres.Fallbacks, dres.ColoredConflictRatio())
		}
		return res
	}
	tbl := trace.NewTable("efficiency",
		"allocation", "rounds", "proc_rounds", "wasted", "efficiency")
	configs := []struct {
		tag  float64 // fixed m, or 0 for adaptive
		ctrl control.Controller
	}{
		{0, mustCtrl("hybrid", workload.ControllerParams{Rho: rho})},
		{2, mustCtrl("fixed", workload.ControllerParams{FixedM: 2})},
		{16, mustCtrl("fixed", workload.ControllerParams{FixedM: 16})},
		{64, mustCtrl("fixed", workload.ControllerParams{FixedM: 64})},
		{256, mustCtrl("fixed", workload.ControllerParams{FixedM: 256})},
		{1024, mustCtrl("fixed", workload.ControllerParams{FixedM: 1024})},
	}
	for _, c := range configs {
		res := run(c.ctrl)
		tbl.AddRow(c.tag, float64(res.Rounds), float64(res.ProcRounds),
			float64(res.WastedWork), res.Efficiency())
	}
	mustWrite(tbl)
	fmt.Println("\n(allocation 0 = adaptive Algorithm 1)")
}

// runRhoSweep quantifies Remark 1's recommendation ρ ∈ [20%, 30%]: too
// small a target forfeits parallelism (long makespan), too large wastes
// work (high energy); the sweep locates the knee.
func runRhoSweep(n int, seed uint64, par int) {
	fmt.Printf("Target-ρ sweep on a draining CC workload (n=%d, d=16); 5 runs each\n", n)
	tbl := trace.NewTable("rho-sweep",
		"rho", "rounds", "proc_rounds", "wasted", "efficiency")
	for _, rho := range []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50, 0.70} {
		var rounds, proc, wasted float64
		const reps = 5
		for i := 0; i < reps; i++ {
			cc, err := workload.New("cc", workload.Params{
				Size: n, Seed: seed + uint64(i), Parallel: par, Degree: 16})
			if err != nil {
				panic(err)
			}
			res := workload.Drain(context.Background(), cc.Stepper,
				mustCtrl("hybrid", workload.ControllerParams{Rho: rho}), 1<<30)
			cc.Stepper.Close()
			rounds += float64(res.Rounds)
			proc += float64(res.ProcRounds)
			wasted += float64(res.WastedWork)
		}
		tbl.AddRow(rho, rounds/reps, proc/reps, wasted/reps,
			(proc-wasted)/proc)
	}
	mustWrite(tbl)
}

// runPhases drives the hybrid through abrupt parallelism changes: one
// static run per phase, the controller carried across the jumps.
func runPhases(rho float64, seed uint64) {
	r := rng.New(seed)
	specs := []profile.PhaseSpec{
		{Rounds: 60, N: 2000, Degree: 64}, // scarce parallelism
		{Rounds: 60, N: 2000, Degree: 4},  // parallelism explodes
		{Rounds: 60, N: 2000, Degree: 16}, // settles in between
	}
	fmt.Printf("Abrupt-phase tracking (ρ=%.0f%%): degree 64 → 4 → 16 every 60 rounds\n", rho*100)
	h := control.NewHybrid(control.DefaultHybridConfig(rho))
	tbl := trace.NewTable("phase-tracking", "round", "phase", "m", "ratio")
	round := 0
	for phase, spec := range specs {
		g := graph.RandomWithAvgDegree(r, spec.N, spec.Degree)
		tr := control.RunLoopStatic(g, r, h, spec.Rounds)
		for i, m := range tr.M {
			tbl.AddRow(float64(round), float64(phase), float64(m), tr.R[i])
			round++
		}
	}
	mustWrite(tbl)
}
