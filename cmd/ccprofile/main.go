// Command ccprofile charts available parallelism over time in the style
// of the Lonestar suite ([15] in the paper): at each step the expected
// maximal-independent-set size of the current CC graph is the number of
// tasks a clairvoyant scheduler could run at once. The paper's §4.1
// motivates the adaptive controller with exactly these profiles.
//
// Usage:
//
//	ccprofile -workload random -n 2000 -d 16
//	ccprofile -workload mesh -size 3000       # Delaunay refinement
//	ccprofile -workload boruvka               # MSF component phases
//	ccprofile -workload cluster               # mutual-NN merge matching
//	ccprofile -workload des                   # ordered (chronological) DES
//	ccprofile -workload phases                # synthetic abrupt shifts
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/apps/boruvka"
	"repro/internal/apps/cluster"
	"repro/internal/apps/des"
	"repro/internal/apps/mesh"
	"repro/internal/graph"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

func main() {
	workload := flag.String("workload", "random", "random | mesh | boruvka | cluster | des | phases")
	n := flag.Int("n", 2000, "CC graph size (random workload)")
	d := flag.Float64("d", 16, "average degree (random workload)")
	size := flag.Int("size", 2000, "mesh workload size (1/MaxArea)")
	seed := flag.Uint64("seed", 1, "PRNG seed")
	reps := flag.Int("reps", 5, "MIS estimation repetitions per step")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"MIS estimation workers (reps shard across them)")
	plot := flag.Bool("plot", false, "render an ASCII plot")
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "-reps must be at least 1")
		flag.Usage()
		os.Exit(2)
	}
	if *workload == "random" && *d > float64(*n-1) {
		fmt.Fprintf(os.Stderr, "-d %g needs -n ≥ %g: a simple graph on n nodes has degree at most n−1\n", *d, *d+1)
		flag.Usage()
		os.Exit(2)
	}

	var pts []profile.Point
	r := rng.New(*seed)
	switch *workload {
	case "random":
		g := graph.RandomWithAvgDegree(r, *n, *d)
		pts = profile.Profile(g, r, *reps, 100000, *workers)
	case "mesh":
		pts = meshProfile(r, *size)
	case "boruvka":
		g := boruvka.NewRandomConnected(r, *size, *size*3)
		for _, p := range boruvka.ParallelismProfile(g, r, *reps*4) {
			pts = append(pts, profile.Point{
				Step:        p.Phase,
				Live:        p.Components,
				Parallelism: p.Parallelism,
			})
		}
	case "cluster":
		c := cluster.New(cluster.RandomPoints(r, *size))
		for _, p := range c.ParallelismProfile(1) {
			pts = append(pts, profile.Point{
				Step:        p.Step,
				Live:        p.Clusters,
				Parallelism: float64(p.MutualPairs),
			})
		}
	case "des":
		net := des.NewTandem(*seed, 0.2, 0.15, 0.25, 0.2, 0.1, 0.3)
		for _, p := range des.ParallelismProfile(net, *size/4, 0.05, 100000) {
			pts = append(pts, profile.Point{
				Step:        p.Step,
				Live:        p.Pending,
				Parallelism: float64(p.Parallelism),
			})
		}
	case "phases":
		pts = phasesProfile(r, *reps, *workers)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
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

// meshProfile measures the Delaunay-refinement parallelism profile: the
// number of *independent* bad-triangle cavities per refinement step —
// the paper's "no parallelism to one thousand parallel tasks in just 30
// temporal steps" workload. Each step refines one maximal independent
// batch of bad triangles.
func meshProfile(r *rng.Rand, size int) []profile.Point {
	m := mesh.NewSquare(0, 1)
	for i := 0; i < 50; i++ {
		m.Insert(mesh.Point{X: 0.01 + 0.98*r.Float64(), Y: 0.01 + 0.98*r.Float64()})
	}
	q := mesh.Quality{MaxArea: 1.0 / float64(size)}
	var pts []profile.Point
	for step := 0; step < 100000; step++ {
		bad := m.BadTriangles(q)
		if len(bad) == 0 {
			break
		}
		// Independent batch: greedily take bad triangles with disjoint
		// cavities (clairvoyant parallelism estimate).
		taken := map[int]bool{}
		batch := 0
		for _, id := range bad {
			t := m.Triangle(id)
			if t == nil {
				continue
			}
			p, ok := m.RefinePoint(t)
			if !ok {
				continue
			}
			loc := m.Locate(p)
			if loc < 0 {
				continue
			}
			cav := m.Cavity(loc, p)
			overlap := false
			for _, cid := range cav {
				if taken[cid] {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			for _, cid := range cav {
				taken[cid] = true
			}
			batch++
		}
		pts = append(pts, profile.Point{Step: step, Live: len(bad), Parallelism: float64(batch)})
		// Refine one batch sequentially (any independent subset is a
		// valid parallel step).
		count := 0
		for _, id := range bad {
			if t := m.Triangle(id); t != nil && q.IsBad(m, t) {
				if p, ok := m.RefinePoint(t); ok {
					if m.Locate(p) >= 0 {
						m.Insert(p)
						count++
					}
				}
			}
			if count >= batch {
				break
			}
		}
	}
	return pts
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
