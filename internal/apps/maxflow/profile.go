package maxflow

import (
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sched"
)

// ProfilePoint records the available parallelism of one preflow-push
// step.
type ProfilePoint struct {
	Step        int
	Active      int
	Parallelism float64 // E[greedy MIS] of the discharge-conflict graph
}

// dischargeConflictGraph builds the CC graph over the currently active
// nodes: two discharges conflict when their residual neighborhoods
// intersect (share a node), i.e. the nodes are within two hops.
func dischargeConflictGraph(st *prState, active []int) *graph.Graph {
	g := graph.New()
	id := make(map[int]int, len(active))
	for _, v := range active {
		id[v] = g.AddNode()
	}
	// Mark each active node's closed neighborhood and connect active
	// pairs whose neighborhoods overlap.
	owner := make(map[int][]int) // network node -> active nodes touching it
	for _, v := range active {
		owner[v] = append(owner[v], v)
		for i := range st.net.adj[v] {
			w := st.net.adj[v][i].To
			owner[w] = append(owner[w], v)
		}
	}
	for _, claimants := range owner {
		for i := 0; i < len(claimants); i++ {
			for j := i + 1; j < len(claimants); j++ {
				a, b := id[claimants[i]], id[claimants[j]]
				if a != b && !g.HasEdge(a, b) {
					g.AddEdge(a, b)
				}
			}
		}
	}
	return g
}

// ParallelismProfile charts available parallelism across a clairvoyant
// preflow-push run: each step discharges a maximal independent set of
// active nodes (by conflict neighborhoods) and records the expected MIS
// size.
func ParallelismProfile(net *Network, src, sink int, r *rng.Rand, misReps, maxSteps int) []ProfilePoint {
	st := newPRState(net, src, sink)
	active := st.saturateSource()
	var out []ProfilePoint
	for step := 0; step < maxSteps && len(active) > 0; step++ {
		cg := dischargeConflictGraph(st, active)
		out = append(out, ProfilePoint{
			Step:        step,
			Active:      len(active),
			Parallelism: sched.NewEstimator(cg, 1).ExpectedCommitted(r, cg.NumNodes(), misReps),
		})
		// Clairvoyant step: discharge every active node sequentially
		// (any independent subset is one parallel step; full sweep
		// keeps the profile short and the dynamics realistic).
		var next []int
		nextSet := make(map[int]bool)
		for _, v := range active {
			if !st.active(v) {
				continue
			}
			for _, w := range st.discharge(v) {
				if !nextSet[w] && st.active(w) {
					nextSet[w] = true
					next = append(next, w)
				}
			}
		}
		for _, v := range active {
			if st.active(v) && !nextSet[v] {
				nextSet[v] = true
				next = append(next, v)
			}
		}
		active = next
	}
	return out
}
