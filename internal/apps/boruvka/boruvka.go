// Package boruvka implements minimum-spanning-forest construction with
// Boruvka's algorithm — one of the paper's motivating amorphous
// data-parallel workloads (§1): each component repeatedly contracts its
// minimum-weight outgoing edge; two contractions can proceed in parallel
// iff they touch disjoint components. The package provides a sequential
// implementation (plus Kruskal as an independent oracle) and a
// speculative adapter for the optimistic runtime where component merges
// conflict on shared endpoints.
package boruvka

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Edge is a weighted undirected edge. ID breaks weight ties so the MSF
// is unique and results are comparable across implementations.
type Edge struct {
	U, V int
	W    float64
	ID   int
}

// less orders edges by (weight, ID) — a strict total order.
func (e Edge) less(f Edge) bool {
	if e.W != f.W {
		return e.W < f.W
	}
	return e.ID < f.ID
}

// WGraph is an edge-list weighted graph on vertices 0..N-1.
type WGraph struct {
	N     int
	Edges []Edge
}

// NewRandomConnected returns a connected weighted graph: a random
// spanning tree plus extra random edges, all with distinct random
// weights.
func NewRandomConnected(r *rng.Rand, n, extraEdges int) *WGraph {
	if n < 1 {
		panic("boruvka: need at least one vertex")
	}
	g := &WGraph{N: n}
	addEdge := func(u, v int) {
		g.Edges = append(g.Edges, Edge{U: u, V: v, W: r.Float64(), ID: len(g.Edges)})
	}
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		addEdge(perm[i], perm[r.Intn(i)])
	}
	for i := 0; i < extraEdges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			addEdge(u, v)
		}
	}
	return g
}

// UnionFind is a disjoint-set forest with union by rank and path
// compression.
type UnionFind struct {
	parent []int
	rank   []int
	comps  int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), rank: make([]int, n), comps: n}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y and returns the new root; it returns
// -1 if they were already joined.
func (uf *UnionFind) Union(x, y int) int {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return -1
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.comps--
	return rx
}

// Result is a computed minimum spanning forest.
type Result struct {
	Edges  []Edge
	Weight float64
	Rounds int // Boruvka phases (0 for Kruskal)
}

// TotalWeight sums the chosen edge weights.
func TotalWeight(edges []Edge) float64 {
	w := 0.0
	for _, e := range edges {
		w += e.W
	}
	return w
}

// Kruskal computes the MSF by sorted greedy insertion — the independent
// correctness oracle.
func Kruskal(g *WGraph) Result {
	edges := append([]Edge(nil), g.Edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].less(edges[j]) })
	uf := NewUnionFind(g.N)
	var out Result
	for _, e := range edges {
		if uf.Union(e.U, e.V) >= 0 {
			out.Edges = append(out.Edges, e)
		}
	}
	out.Weight = TotalWeight(out.Edges)
	return out
}

// Sequential computes the MSF with classic round-synchronous Boruvka.
func Sequential(g *WGraph) Result {
	uf := NewUnionFind(g.N)
	var out Result
	for {
		// Minimum outgoing edge per component root.
		best := make(map[int]Edge)
		found := false
		for _, e := range g.Edges {
			ru, rv := uf.Find(e.U), uf.Find(e.V)
			if ru == rv {
				continue
			}
			found = true
			if b, ok := best[ru]; !ok || e.less(b) {
				best[ru] = e
			}
			if b, ok := best[rv]; !ok || e.less(b) {
				best[rv] = e
			}
		}
		if !found {
			break
		}
		out.Rounds++
		for _, e := range best {
			if uf.Union(e.U, e.V) >= 0 {
				out.Edges = append(out.Edges, e)
			}
		}
	}
	out.Weight = TotalWeight(out.Edges)
	return out
}

// Verify checks that res is a spanning forest of g with the same weight
// as the Kruskal oracle (unique-weight inputs make the MSF unique).
func Verify(g *WGraph, res Result) error {
	uf := NewUnionFind(g.N)
	for _, e := range res.Edges {
		if uf.Union(e.U, e.V) < 0 {
			return fmt.Errorf("boruvka: result contains a cycle at edge %v", e)
		}
	}
	oracle := Kruskal(g)
	if len(oracle.Edges) != len(res.Edges) {
		return fmt.Errorf("boruvka: result has %d edges, oracle %d",
			len(res.Edges), len(oracle.Edges))
	}
	if diff := oracle.Weight - res.Weight; diff < -1e-9 || diff > 1e-9 {
		return fmt.Errorf("boruvka: weight %v differs from oracle %v",
			res.Weight, oracle.Weight)
	}
	return nil
}
