// Minimum spanning forest example: Boruvka's algorithm with speculative
// component merges under adaptive processor allocation, verified against
// the Kruskal oracle.
//
//	go run ./examples/minimumst
package main

import (
	"fmt"

	"repro/internal/apps/boruvka"
	"repro/internal/control"
	"repro/internal/rng"
	"repro/internal/speculation"
)

func main() {
	r := rng.New(7)
	const n, extra = 2000, 6000
	g := boruvka.NewRandomConnected(r, n, extra)
	fmt.Printf("graph: %d vertices, %d edges\n", g.N, len(g.Edges))

	// Sequential Boruvka for reference.
	seq := boruvka.Sequential(g)
	fmt.Printf("sequential: %d rounds, weight %.3f\n", seq.Rounds, seq.Weight)

	// Speculative Boruvka with the Algorithm 1 controller.
	s := boruvka.NewSpeculativeMSF(g, func(n int) int { return r.Intn(n) })
	ctrl := control.NewHybrid(control.DefaultHybridConfig(0.25))
	res := speculation.RunAdaptive(s.Executor(), ctrl, 1<<30)
	msf := s.Result()

	exec := s.Executor()
	fmt.Printf("speculative: %d rounds, weight %.3f, conflict ratio %.2f\n",
		res.Rounds, msf.Weight, exec.OverallConflictRatio())

	if err := boruvka.Verify(g, msf); err != nil {
		fmt.Println("VERIFY FAILED:", err)
		return
	}
	fmt.Println("speculative MSF matches the Kruskal oracle ✓")

	// Early rounds have huge components-count, so lots of parallelism;
	// show how the controller ramps.
	fmt.Println("\nround  m    conflict-ratio")
	step := len(res.M)/12 + 1
	for i := 0; i < len(res.M); i += step {
		fmt.Printf("%5d  %-4d %.2f\n", i, res.M[i], res.R[i])
	}
}
