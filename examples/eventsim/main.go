// Event simulation example: processor allocation for an ORDERED
// algorithm — the paper's §5 future work ("e.g., discrete event
// simulation", where events must commit chronologically).
//
// A tandem queueing network runs on the ordered speculative executor:
// events claim their station, commit in timestamp order, and executions
// that lose a same-station race (conflicts) or run ahead of newly
// spawned earlier events (premature, the Time-Warp hazard) are wasted
// work the controller reacts to. The final state is verified to be
// bit-identical to a sequential event-loop oracle.
//
//	go run ./examples/eventsim
package main

import (
	"fmt"
	"math"

	"repro/internal/apps/des"
	"repro/internal/control"
	"repro/internal/speculation"
)

func main() {
	// 8-station tandem, 500 jobs arriving quickly: early on, many
	// stations are active at once (parallelism); the tail serializes.
	means := []float64{0.2, 0.15, 0.25, 0.2, 0.1, 0.3, 0.2, 0.15}
	net := des.NewTandem(99, means...)
	const jobs, interMean = 500, 0.05

	oracle := des.RunSequential(net, jobs, interMean)
	makespan, served := oracle.MakespanAndThroughput()
	fmt.Printf("oracle: served=%d makespan=%.2f processed=%d events\n",
		served, makespan, oracle.Processed)

	sim := des.NewSpeculativeSim(net, jobs, interMean)
	ctrl := control.NewHybrid(control.DefaultHybridConfig(0.25))
	res := speculation.RunAdaptive(sim.Executor(), ctrl, 1<<30)

	e := sim.Executor()
	fmt.Printf("speculative: rounds=%d committed=%d conflicts=%d premature=%d (wasted %.1f%%)\n",
		res.Rounds, e.TotalCommitted(), e.TotalConflicts(), e.TotalPremature(),
		100*e.OverallConflictRatio())

	if err := sim.State().CheckComplete(); err != nil {
		fmt.Println("INCOMPLETE:", err)
		return
	}
	m2, s2 := sim.State().MakespanAndThroughput()
	if s2 != served || math.Abs(m2-makespan) > 1e-12 {
		fmt.Println("MISMATCH with oracle!")
		return
	}
	fmt.Println("speculative trajectory is bit-identical to the oracle ✓")

	fmt.Println("\nround  m    wasted-ratio")
	step := len(res.M)/12 + 1
	for i := 0; i < len(res.M); i += step {
		fmt.Printf("%5d  %-4d %.2f\n", i, res.M[i], res.R[i])
	}
}
