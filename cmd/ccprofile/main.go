// Command ccprofile charts available parallelism over time in the style
// of the Lonestar suite ([15] in the paper). The paper's §4.1 motivates
// the adaptive controller with exactly these profiles.
//
// On the model (random, phases), each step's parallelism is the expected
// maximal-independent-set size of the current CC graph: the number of
// tasks a clairvoyant scheduler could run at once. Any workload apprun
// runs is instead built as apprun builds it (same -size and -seed) and
// profiled as ParaMeter profiles a program: each step launches every
// pending task in one round, on one participant, and counts the tasks
// that commit. The drained run must then pass the workload's oracle.
//
// Usage:
//
//	ccprofile -workload random -n 2000 -d 16
//	ccprofile -workload phases                # synthetic abrupt shifts
//	ccprofile -workload mesh -size 3000       # Delaunay refinement
//	ccprofile -workload des                   # ordered (chronological) DES
//	ccprofile -workload sp -size 500 -plot    # any apprun -app name
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"strings"

	"repro/internal/graph"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// maxSteps caps a profile's length.
const maxSteps = 100000

func main() {
	wl := flag.String("workload", "random",
		"random | phases (the model), or a workload apprun runs: "+strings.Join(workload.Names(), " | "))
	n := flag.Int("n", 2000, "CC graph size (random workload)")
	d := flag.Float64("d", 16, "average degree (random workload)")
	size := flag.Int("size", 2000, "workload size, as apprun's -size (apprun workloads)")
	seed := flag.Uint64("seed", 1, "PRNG seed")
	reps := flag.Int("reps", 5, "MIS estimation repetitions per step (random, phases)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"MIS estimation workers (reps shard across them)")
	plot := flag.Bool("plot", false, "render an ASCII plot")
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "-reps must be at least 1")
		flag.Usage()
		os.Exit(2)
	}
	if *wl == "random" && *d > float64(*n-1) {
		fmt.Fprintf(os.Stderr, "-d %g needs -n ≥ %g: a simple graph on n nodes has degree at most n−1\n", *d, *d+1)
		flag.Usage()
		os.Exit(2)
	}

	var pts []profile.Point
	r := rng.New(*seed)
	switch *wl {
	case "random":
		g := graph.RandomWithAvgDegree(r, *n, *d)
		pts = profile.Profile(g, r, *reps, maxSteps, *workers)
	case "phases":
		pts = phasesProfile(r, *reps, *workers)
	case "spin":
		fmt.Fprintln(os.Stderr, "spin never drains, so it has no profile")
		flag.Usage()
		os.Exit(2)
	default:
		// One participant: each round commits a greedy maximal independent
		// set in launch order, so the profile is a pure function of the seed.
		run, err := workload.New(*wl, workload.Params{Size: *size, Seed: *seed, Parallel: 1})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			flag.Usage()
			os.Exit(2)
		}
		pts = profile.Drain(run.Stepper, maxSteps)
		if _, err := run.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: VERIFY FAILED: %v\n", *wl, err)
			os.Exit(1)
		}
	}

	tbl := trace.NewTable("parallelism-profile", "step", "live", "parallelism", "avg_degree")
	for _, p := range pts {
		tbl.AddRow(float64(p.Step), float64(p.Live), p.Parallelism, p.AvgDegree)
	}
	if err := tbl.WriteTSV(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *plot {
		pl := trace.NewASCIIPlot(72, 16)
		pl.XLabel = "step"
		pl.YLabel = "available parallelism"
		pl.SetX(tbl.Column(0))
		pl.AddSeries("parallelism", tbl.Column(2))
		fmt.Println()
		if err := pl.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// phasesProfile charts a synthetic phase-shifting workload: each phase's
// static graph is snapshotted once and its E[MIS] re-estimated every
// round of the phase.
func phasesProfile(r *rng.Rand, reps, workers int) []profile.Point {
	specs := []profile.PhaseSpec{
		{Rounds: 30, N: 1000, Degree: 128},
		{Rounds: 30, N: 1000, Degree: 2},
		{Rounds: 30, N: 1000, Degree: 32},
	}
	var pts []profile.Point
	for _, spec := range specs {
		g := graph.RandomWithAvgDegree(r, spec.N, spec.Degree)
		est := sched.NewEstimator(g, workers)
		for i := 0; i < spec.Rounds; i++ {
			pts = append(pts, profile.Point{
				Step:        len(pts),
				Live:        g.NumNodes(),
				Parallelism: est.ExpectedCommitted(r, g.NumNodes(), reps),
				AvgDegree:   g.AvgDegree(),
			})
		}
	}
	return pts
}
