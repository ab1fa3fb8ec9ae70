// Quickstart: allocate processors adaptively for an irregular workload
// modeled as a computations/conflicts graph.
//
// The CC graph has one node per pending task and one edge per potential
// conflict. Each round the runtime launches m tasks speculatively; the
// Algorithm 1 controller adjusts m so the measured conflict ratio tracks
// the target ρ.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/speculation"
)

func main() {
	// A random irregular workload: 2000 tasks, each conflicting with 16
	// others on average (the paper's Fig. 2/3 parameters).
	r := rng.New(42)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	n, d := g.NumNodes(), g.AvgDegree()

	// What does the theory promise before running anything?
	fmt.Printf("tasks=%d avg-conflicts=%.1f\n", n, d)
	fmt.Printf("Turán guaranteed parallelism: >= %.0f tasks/round\n", analytic.TuranBound(n, d))
	fmt.Printf("safe initial allocation:      m0 = %d (conflict ratio <= 21.3%%)\n", analytic.SuggestedInitialM(n, d))

	// Drain the workload on the speculative runtime — one task per node,
	// one abstract lock per conflict edge — with the controller at ρ = 25%.
	ctrl := control.NewHybrid(control.DefaultHybridConfig(0.25))
	e := speculation.NewGraphExecutor(speculation.NewGraphWorkload(g), r.Split())
	defer e.Close()
	res := speculation.RunAdaptive(e, ctrl, 100000)

	peakM := 0
	for _, m := range res.M {
		peakM = max(peakM, m)
	}
	fmt.Printf("\ndrained in %d rounds: committed=%d wasted=%d peak-m=%d\n",
		res.Rounds, res.UsefulWork, res.WastedWork, peakM)
	fmt.Printf("controller updates: B=%d A=%d hold=%d\n",
		ctrl.UpdatesB, ctrl.UpdatesA, ctrl.UpdatesNone)
}
