// Phases example: the controller versus abruptly changing parallelism.
//
// The paper's §4.1 motivates fast adaptation with the Lonestar profiles:
// "Delaunay mesh refinement can go from no parallelism to one thousand
// possible parallel tasks in just 30 temporal steps". This example
// subjects the Algorithm 1 controller to a synthetic CC workload whose
// available parallelism jumps by an order of magnitude at phase
// boundaries, and prints how quickly m re-converges after each jump.
//
//	go run ./examples/phases
package main

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/speculation"
)

func main() {
	r := rng.New(11)
	const rho = 0.20
	specs := []profile.PhaseSpec{
		{Rounds: 50, N: 2000, Degree: 64}, // μ ≈ 18: scarce parallelism
		{Rounds: 50, N: 2000, Degree: 4},  // μ ≈ 250: parallelism explodes
		{Rounds: 50, N: 2000, Degree: 16}, // μ ≈ 68: settles between
	}
	ctrl := control.NewHybrid(control.DefaultHybridConfig(rho))

	fmt.Printf("phase-shifting workload, ρ = %.0f%%\n", rho*100)
	fmt.Println("round  phase  m     conflict-ratio")
	round := 0
	for phase, spec := range specs {
		if phase > 0 {
			fmt.Printf("----- phase %d: degree %.0f -----\n", phase, spec.Degree)
		}
		// A static graph per phase; the controller carries over the jump.
		g := graph.RandomWithAvgDegree(r, spec.N, spec.Degree)
		tr := speculation.RunAdaptive(sched.NewStatic(g, r), ctrl, spec.Rounds)
		for i, m := range tr.M {
			if round%5 == 0 {
				fmt.Printf("%5d  %-5d  %-4d  %.2f\n", round, phase, m, tr.R[i])
			}
			round++
		}
	}
	fmt.Printf("\ncontroller updates: B=%d (coarse) A=%d (fine) hold=%d\n",
		ctrl.UpdatesB, ctrl.UpdatesA, ctrl.UpdatesNone)
}
