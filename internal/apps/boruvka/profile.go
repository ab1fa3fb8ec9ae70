package boruvka

import (
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sched"
)

// ProfilePoint records the available parallelism of one Boruvka phase.
type ProfilePoint struct {
	Phase       int
	Components  int
	Parallelism float64 // E[greedy MIS] of the component-conflict graph
}

// ComponentConflictGraph builds the CC graph of the current Boruvka
// state: one node per live component (indexed by root), an edge between
// two components when some input edge connects them — merging either
// pair conflicts with merges touching a shared component, exactly the
// lock structure of the speculative implementation.
func ComponentConflictGraph(g *WGraph, uf *UnionFind) (*graph.Graph, map[int]int) {
	cc := graph.New()
	id := make(map[int]int) // component root -> cc-graph node
	for v := 0; v < g.N; v++ {
		r := uf.Find(v)
		if _, ok := id[r]; !ok {
			id[r] = cc.AddNode()
		}
	}
	for _, e := range g.Edges {
		ru, rv := uf.Find(e.U), uf.Find(e.V)
		if ru == rv {
			continue
		}
		if !cc.HasEdge(id[ru], id[rv]) {
			cc.AddEdge(id[ru], id[rv])
		}
	}
	return cc, id
}

// ParallelismProfile charts available parallelism across the sequential
// Boruvka phases of g (Lonestar-style): per phase, the expected greedy
// MIS of the component-conflict graph estimated with misReps random
// permutations.
func ParallelismProfile(g *WGraph, r *rng.Rand, misReps int) []ProfilePoint {
	uf := NewUnionFind(g.N)
	var out []ProfilePoint
	for phase := 0; ; phase++ {
		cc, _ := ComponentConflictGraph(g, uf)
		if cc.NumEdges() == 0 {
			// No cross-component edges: the forest is complete.
			break
		}
		out = append(out, ProfilePoint{
			Phase:       phase,
			Components:  uf.Components(),
			Parallelism: sched.NewEstimator(cc, 1).ExpectedCommitted(r, cc.NumNodes(), misReps),
		})
		// Advance one full Boruvka phase.
		best := make(map[int]Edge)
		for _, e := range g.Edges {
			ru, rv := uf.Find(e.U), uf.Find(e.V)
			if ru == rv {
				continue
			}
			if b, ok := best[ru]; !ok || e.less(b) {
				best[ru] = e
			}
			if b, ok := best[rv]; !ok || e.less(b) {
				best[rv] = e
			}
		}
		for _, e := range best {
			uf.Union(e.U, e.V)
		}
	}
	return out
}
