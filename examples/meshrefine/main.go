// Mesh refinement example: Delaunay mesh refinement — the paper's
// running example of amorphous data-parallelism — executed on the
// optimistic runtime with adaptive processor allocation.
//
// Bad triangles are speculative tasks; two refinements conflict when
// their cavities overlap. Watch the controller ramp m up as refinement
// fans out and back down as work thins.
//
//	go run ./examples/meshrefine
package main

import (
	"fmt"
	"os"

	"repro/internal/apps/mesh"
	"repro/internal/control"
	"repro/internal/rng"
	"repro/internal/speculation"
)

func main() {
	r := rng.New(2026)

	// Seed a triangulation of the unit square with 100 random points.
	m := mesh.NewSquare(0, 1)
	for i := 0; i < 100; i++ {
		m.Insert(mesh.Point{X: 0.01 + 0.98*r.Float64(), Y: 0.01 + 0.98*r.Float64()})
	}
	quality := mesh.Quality{MaxArea: 0.0004, MinAngleDeg: 18}
	fmt.Printf("initial: %d triangles, %d bad (max area %.4f, min angle %v°)\n",
		m.NumTriangles(), len(m.BadTriangles(quality)), quality.MaxArea, quality.MinAngleDeg)

	ref := mesh.NewSpeculativeRefiner(m, quality, func(n int) int { return r.Intn(n) })
	ctrl := control.NewHybrid(control.DefaultHybridConfig(0.25))
	res := speculation.RunAdaptive(ref.Executor(), ctrl, 1<<30)

	exec := ref.Executor()
	fmt.Printf("refined in %d rounds: inserted=%d stale=%d committed=%d aborted=%d (conflict ratio %.2f)\n",
		res.Rounds, ref.Inserted, ref.StaleOK(), exec.TotalCommitted(), exec.TotalAborted(),
		exec.OverallConflictRatio())
	fmt.Printf("final: %d triangles, %d bad\n", m.NumTriangles(), len(m.BadTriangles(quality)))

	if err := m.CheckConsistency(); err != nil {
		fmt.Println("CONSISTENCY FAILED:", err)
		return
	}
	fmt.Println("mesh structurally consistent; total area =", m.TotalArea())

	// Allocation trajectory (coarse): show every 5th round.
	fmt.Println("\nround  m    conflict-ratio")
	for i := 0; i < len(res.M); i += 5 {
		fmt.Printf("%5d  %-4d %.2f\n", i, res.M[i], res.R[i])
	}

	// Render the refined mesh for inspection.
	f, err := os.Create("mesh.svg")
	if err != nil {
		fmt.Println("cannot write mesh.svg:", err)
		return
	}
	defer f.Close()
	if err := m.WriteSVG(f, quality, 800); err != nil {
		fmt.Println("SVG render failed:", err)
		return
	}
	fmt.Println("\nwrote mesh.svg (800×800)")
}
