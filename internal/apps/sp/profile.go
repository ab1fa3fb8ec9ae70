package sp

import (
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sched"
)

// ClauseConflictGraph builds the CC graph of a formula's clause-update
// tasks: one node per clause, an edge between clauses sharing a
// variable — the lock structure of the speculative SP schedule.
func ClauseConflictGraph(f *Formula) *graph.Graph {
	g := graph.NewWithNodes(len(f.Clauses))
	occ := make([][]int, f.NumVars)
	for ci, c := range f.Clauses {
		for _, l := range c.Lits {
			occ[l.Var] = append(occ[l.Var], ci)
		}
	}
	for _, clauses := range occ {
		for i := 0; i < len(clauses); i++ {
			for j := i + 1; j < len(clauses); j++ {
				if clauses[i] != clauses[j] && !g.HasEdge(clauses[i], clauses[j]) {
					g.AddEdge(clauses[i], clauses[j])
				}
			}
		}
	}
	return g
}

// ParallelismEstimate returns the expected number of clause updates a
// clairvoyant scheduler could run concurrently on formula f: the
// expected greedy MIS of the clause-conflict graph. For random k-SAT at
// ratio α the conflict degree concentrates around k²·α, so parallelism
// scales linearly with the formula size.
func ParallelismEstimate(f *Formula, r *rng.Rand, misReps int) float64 {
	g := ClauseConflictGraph(f)
	return sched.NewEstimator(g, 1).ExpectedCommitted(r, g.NumNodes(), misReps)
}
