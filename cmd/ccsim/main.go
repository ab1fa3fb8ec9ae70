// Command ccsim regenerates Figure 2 of the paper: the conflict-ratio
// function r̄(m) for CC graphs with n = 2000 nodes and average degree
// d = 16, comparing
//
//	(i)   the worst-case upper bound (Cor. 2 / Thm. 3),
//	(ii)  a random graph ("edges chosen uniformly at random until the
//	      desired degree is reached", measured by simulation), and
//	(iii) a union of cliques plus disconnected nodes.
//
// Output is a TSV table (one row per m) and an optional ASCII plot.
//
// Usage:
//
//	ccsim                       # paper parameters (n=2000, d=16)
//	ccsim -n 4000 -d 32 -reps 400
//	ccsim -plot                 # append an ASCII rendering
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"

	"repro/internal/speculation"

	"repro/internal/analytic"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

func main() {
	n := flag.Int("n", 2000, "CC graph size")
	d := flag.Int("d", 16, "average degree")
	reps := flag.Int("reps", 300, "Monte Carlo repetitions per point")
	points := flag.Int("points", 40, "samples along the m axis")
	seed := flag.Uint64("seed", 1, "PRNG seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"Monte Carlo estimation workers (reps shard across them)")
	plot := flag.Bool("plot", false, "render an ASCII plot too")
	variance := flag.Bool("variance", false, "per-round ratio noise vs m (§4.1)")
	families := flag.Bool("families", false, "r̄(m) curves across generator families")
	runtimeCmp := flag.Bool("runtime", false, "goroutine-runtime vs model fidelity table")
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "-reps must be at least 1")
		flag.Usage()
		os.Exit(2)
	}
	if *d > *n-1 { // every mode draws a graph of average degree d on n nodes
		fmt.Fprintf(os.Stderr, "-d %d needs -n ≥ %d: a simple graph on n nodes has degree at most n−1\n", *d, *d+1)
		flag.Usage()
		os.Exit(2)
	}

	r := rng.New(*seed)
	if *variance {
		runVariance(r, *n, *d, *reps, *workers)
		return
	}
	if *families {
		runFamilies(r, *n, *d, *reps, *points, *workers)
		return
	}
	if *runtimeCmp {
		runRuntimeFidelity(r, *n, *d, *reps, *workers)
		return
	}
	random := graph.RandomWithAvgDegree(r, *n, float64(*d))

	// Fig. 2 (iii): cliques of size d·2+1 on half the nodes, isolated
	// nodes on the other half, preserving average degree d.
	cliqueSize := 2*(*d) + 1
	numCliques := *n / (2 * cliqueSize)
	isolated := *n - numCliques*cliqueSize
	cliquey := graph.CliquesPlusIsolated(numCliques, cliqueSize, isolated)

	fmt.Printf("Fig. 2 reproduction: n=%d d=%d (random graph measured d=%.2f, cliques+isolated d=%.2f)\n",
		*n, *d, random.AvgDegree(), cliquey.AvgDegree())

	tbl := trace.NewTable("fig2-conflict-ratio",
		"m", "worst_case_bound", "random_graph", "cliques_isolated")
	ms := make([]int, 0, *points)
	for i := 1; i <= *points; i++ {
		m := i * *n / *points
		if m < 2 {
			m = 2
		}
		ms = append(ms, m)
	}
	// One CSR snapshot per curve; every m point shards reps across the
	// worker pool.
	estRandom := sched.NewEstimator(random, *workers)
	estCliquey := sched.NewEstimator(cliquey, *workers)
	for _, m := range ms {
		tbl.AddRow(float64(m),
			analytic.Cor2ConflictBound(float64(*n), float64(*d), float64(m)),
			estRandom.ConflictRatio(r, m, *reps),
			estCliquey.ConflictRatio(r, m, *reps))
	}
	if err := tbl.WriteTSV(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *plot {
		p := trace.NewASCIIPlot(72, 20)
		renderFig2Plot(p, tbl)
	}
}

func renderFig2Plot(p *trace.ASCIIPlot, tbl *trace.Table) {
	p.XLabel = "m (processors)"
	p.YLabel = "conflict ratio"
	p.SetX(tbl.Column(0))
	p.AddSeries("worst-case bound", tbl.Column(1))
	p.AddSeries("random graph", tbl.Column(2))
	p.AddSeries("cliques+isolated", tbl.Column(3))
	fmt.Println()
	if err := p.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runFamilies extends Fig. 2 across generator families at the same
// (n, d): the worst-case bound dominates them all (Thm. 2/3), and the
// gap quantifies how benign each conflict structure is.
func runFamilies(r *rng.Rand, n, d, reps, points, workers int) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.RandomWithAvgDegree(r, n, float64(d))},
		{"geometric", geometricWithDegree(r, n, d)},
		{"smallworld", graph.WattsStrogatz(r, n, d/2, 0.1)},
		{"scalefree", graph.BarabasiAlbert(r, n, d/2)},
	}
	fmt.Printf("Conflict-ratio curves across families, n=%d target d=%d\n", n, d)
	ests := make([]*sched.Estimator, len(graphs))
	for i, fam := range graphs {
		fmt.Printf("  %-10s measured d = %.2f\n", fam.name, fam.g.AvgDegree())
		ests[i] = sched.NewEstimator(fam.g, workers)
	}
	tbl := trace.NewTable("fig2-families",
		"m", "worst_case", "random", "geometric", "smallworld", "scalefree")
	for i := 1; i <= points; i++ {
		m := i * n / points
		if m < 2 {
			m = 2
		}
		row := []float64{float64(m), analytic.Cor2ConflictBound(float64(n), float64(d), float64(m))}
		for _, est := range ests {
			row = append(row, est.ConflictRatio(r, m, reps))
		}
		tbl.AddRow(row...)
	}
	if err := tbl.WriteTSV(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runRuntimeFidelity compares, at several m, the conflict ratio of
// (i) the Thm. 3 worst-case bound, (ii) the model simulator, and
// (iii) the goroutine speculative runtime executing one round on a
// fresh clique-union CC graph — the end-to-end fidelity chain from the
// paper's mathematics to real concurrent execution.
func runRuntimeFidelity(r *rng.Rand, n, d, reps, workers int) {
	if n%(d+1) != 0 {
		n -= n % (d + 1)
	}
	fmt.Printf("Model vs runtime fidelity on K^n_d, n=%d d=%d (runtime reps=%d)\n", n, d, reps)
	tbl := trace.NewTable("runtime-fidelity", "m", "thm3_bound", "model_mc", "runtime_mc")
	est := sched.NewEstimator(graph.CliqueUnion(n, d), workers)
	for _, frac := range []int{32, 16, 8, 4, 2} {
		m := n / frac
		if m < 2 {
			continue
		}
		model := est.ConflictRatio(r, m, reps*4)
		launched, aborted := 0, 0
		for i := 0; i < reps; i++ {
			g := graph.CliqueUnion(n, d)
			wl := speculation.NewGraphWorkload(g)
			e := speculation.NewGraphExecutor(wl, r.Split())
			st := e.Round(m)
			e.Close()
			launched += st.Launched
			aborted += st.Aborted
		}
		tbl.AddRow(float64(m),
			analytic.WorstCaseConflictRatio(n, d, m),
			model,
			float64(aborted)/float64(launched))
	}
	if err := tbl.WriteTSV(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// geometricWithDegree picks the RGG radius giving expected degree ~d:
// d = n·π·radius² in the unit square (ignoring boundary).
func geometricWithDegree(r *rng.Rand, n, d int) *graph.Graph {
	radius := math.Sqrt(float64(d) / (float64(n) * math.Pi))
	return graph.RandomGeometric(r, n, radius)
}

// runVariance tabulates the per-round conflict-ratio noise against m —
// the §4.1 observation justifying window averaging and the separate
// small-m regime of Algorithm 1.
func runVariance(r *rng.Rand, n int, d, reps, workers int) {
	g := graph.RandomWithAvgDegree(r, n, float64(d))
	fmt.Printf("Per-round conflict-ratio noise, n=%d d=%d (reps=%d)\n", n, d, reps*10)
	tbl := trace.NewTable("ratio-variance", "m", "mean", "std", "rel_noise")
	est := sched.NewEstimator(g, workers)
	for _, m := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512} {
		if m > n {
			break
		}
		mean, std := est.ConflictRatioDist(r, m, reps*10)
		rel := 0.0
		if mean > 0 {
			rel = std / mean
		}
		tbl.AddRow(float64(m), mean, std, rel)
	}
	if err := tbl.WriteTSV(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
