package boruvka

import (
	"sync"

	"repro/internal/control"
	"repro/internal/speculation"
)

// OrderedKruskal runs Kruskal's algorithm on the *ordered* speculative
// executor: every edge is a task whose priority is its (weight, ID)
// rank, so commits happen in exactly the sequential algorithm's order —
// Kruskal is the textbook ordered algorithm (§5: tasks "must satisfy
// some constraints" on execution order). Edge tasks claim their
// endpoints, so edges sharing a vertex conflict when speculated
// together; the chronological commit prefix guarantees the result is
// *identical* to sequential Kruskal, not merely weight-equal.
type OrderedKruskal struct {
	mu   sync.Mutex
	uf   *UnionFind
	item []*speculation.Item
	exec *speculation.OrderedExecutor

	MSF []Edge
}

// NewOrderedKruskal prepares the ordered workload for g.
func NewOrderedKruskal(g *WGraph) *OrderedKruskal {
	k := &OrderedKruskal{
		uf:   NewUnionFind(g.N),
		item: make([]*speculation.Item, g.N),
		exec: speculation.NewOrderedExecutor(),
	}
	for i := range k.item {
		k.item[i] = speculation.NewItem(int64(i))
	}
	for _, e := range g.Edges {
		k.exec.Add(kruskalTask{k: k, e: e})
	}
	return k
}

// Executor exposes the ordered executor.
func (k *OrderedKruskal) Executor() *speculation.OrderedExecutor { return k.exec }

// Pending returns the number of unprocessed edges.
func (k *OrderedKruskal) Pending() int { return k.exec.Pending() }

// Result returns the forest built so far.
func (k *OrderedKruskal) Result() Result {
	k.mu.Lock()
	defer k.mu.Unlock()
	edges := append([]Edge(nil), k.MSF...)
	return Result{Edges: edges, Weight: TotalWeight(edges)}
}

// Run drains the edges under controller c.
func (k *OrderedKruskal) Run(c control.Controller, maxRounds int) *speculation.AdaptiveResult {
	return speculation.RunAdaptive(k.exec, c, maxRounds)
}

type kruskalTask struct {
	k *OrderedKruskal
	e Edge
}

// Key implements speculation.OrderedTask: the Kruskal processing order.
func (t kruskalTask) Key() speculation.Key {
	return speculation.Key{Time: t.e.W, Tie: uint64(t.e.ID)}
}

// Run implements speculation.OrderedTask.
func (t kruskalTask) Run(ctx *speculation.OrderedCtx) error {
	// Claim the endpoints: edges sharing a vertex are genuine
	// neighborhood conflicts (their union-find updates touch the same
	// trees). The cycle test and the union both happen at commit time,
	// in weight order, so correctness never depends on the claims.
	ctx.Claim(t.k.item[t.e.U], t.k.item[t.e.V])
	ctx.OnCommit(func() {
		t.k.mu.Lock()
		if t.k.uf.Union(t.e.U, t.e.V) >= 0 {
			t.k.MSF = append(t.k.MSF, t.e)
		}
		t.k.mu.Unlock()
	})
	return nil
}
