package graph

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// RandomGNM returns a uniform random simple graph with n nodes and
// exactly m edges, built the way the paper's Fig. 2 describes: "edges
// chosen uniformly at random until desired degree is reached". It panics
// if m exceeds the number of possible edges.
func RandomGNM(r *rng.Rand, n, m int) *Graph {
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		panic(fmt.Sprintf("graph: RandomGNM m=%d exceeds max %d", m, maxEdges))
	}
	g := NewWithNodes(n)
	if m > maxEdges/2 {
		// Dense regime: enumerate all edges and sample a subset, which
		// avoids quadratic rejection near saturation.
		type edge struct{ u, v int }
		all := make([]edge, 0, maxEdges)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				all = append(all, edge{u, v})
			}
		}
		for _, i := range r.PermPrefix(maxEdges, m) {
			g.link(all[i].u, all[i].v)
		}
		return g
	}
	if n > 0 {
		g.reserve(2*m/n + 1)
	}
	for g.NumEdges() < m {
		u := r.Intn(n)
		v := r.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// RandomWithAvgDegree returns a uniform random graph with n nodes and
// average degree as close to d as possible (m = round(n*d/2) edges).
// This is the graph family used throughout the paper's simulations.
func RandomWithAvgDegree(r *rng.Rand, n int, d float64) *Graph {
	m := int(math.Round(float64(n) * d / 2))
	return RandomGNM(r, n, m)
}

// CliqueUnion returns the paper's worst-case graph K^n_d: the disjoint
// union of n/(d+1) cliques of size d+1. It panics unless (d+1) divides n.
func CliqueUnion(n, d int) *Graph {
	if d < 0 || n%(d+1) != 0 {
		panic(fmt.Sprintf("graph: CliqueUnion requires (d+1)|n, got n=%d d=%d", n, d))
	}
	g := NewWithNodes(n)
	size := d + 1
	for base := 0; base < n; base += size {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				g.link(base+i, base+j)
			}
		}
	}
	return g
}

// CliquePlusIsolated returns the Example 1 graph: a clique of cliqueSize
// nodes plus isolated extra nodes (K_{n²} ∪ D_n in the paper, with
// cliqueSize = n² and isolated = n).
func CliquePlusIsolated(cliqueSize, isolated int) *Graph {
	g := NewWithNodes(cliqueSize + isolated)
	for i := 0; i < cliqueSize; i++ {
		for j := i + 1; j < cliqueSize; j++ {
			g.link(i, j)
		}
	}
	return g
}

// CliquesPlusIsolated returns the Fig. 2 (iii) family: numCliques cliques
// of size cliqueSize plus isolated extra nodes.
func CliquesPlusIsolated(numCliques, cliqueSize, isolated int) *Graph {
	n := numCliques*cliqueSize + isolated
	g := NewWithNodes(n)
	for c := 0; c < numCliques; c++ {
		base := c * cliqueSize
		for i := 0; i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				g.link(base+i, base+j)
			}
		}
	}
	return g
}

// Complete returns K_n.
func Complete(n int) *Graph {
	return CliquePlusIsolated(n, 0)
}

// Empty returns n isolated nodes (the fully parallel CC graph).
func Empty(n int) *Graph { return NewWithNodes(n) }

// Cycle returns the n-cycle (n >= 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	g := NewWithNodes(n)
	for i := 0; i < n; i++ {
		g.link(i, (i+1)%n)
	}
	return g
}

// Path returns the n-node path.
func Path(n int) *Graph {
	g := NewWithNodes(n)
	for i := 0; i+1 < n; i++ {
		g.link(i, i+1)
	}
	return g
}

// Star returns a star with one hub and n-1 leaves.
func Star(n int) *Graph {
	if n < 1 {
		panic("graph: Star requires n >= 1")
	}
	g := NewWithNodes(n)
	for i := 1; i < n; i++ {
		g.link(0, i)
	}
	return g
}

// Grid2D returns the rows×cols 4-neighbor mesh — the graph family of the
// unfriendly-seating literature the paper cites (statistical physics on
// mesh-like graphs).
func Grid2D(rows, cols int) *Graph {
	g := NewWithNodes(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.link(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.link(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// RandomGeometric returns a random geometric graph: n points uniform in
// the unit square, edges between pairs closer than radius. This family
// mimics the cavity-overlap conflicts of mesh refinement.
func RandomGeometric(r *rng.Rand, n int, radius float64) *Graph {
	g := NewWithNodes(n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	// Cell grid for near-linear neighbor search.
	cell := radius
	if cell <= 0 {
		panic("graph: RandomGeometric requires positive radius")
	}
	cols := int(1/cell) + 1
	grid := make(map[[2]int][]int)
	key := func(i int) [2]int {
		return [2]int{int(xs[i] / cell), int(ys[i] / cell)}
	}
	for i := 0; i < n; i++ {
		k := key(i)
		grid[k] = append(grid[k], i)
	}
	r2 := radius * radius
	for i := 0; i < n; i++ {
		k := key(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				kk := [2]int{k[0] + dx, k[1] + dy}
				if kk[0] < 0 || kk[1] < 0 || kk[0] >= cols || kk[1] >= cols {
					continue
				}
				for _, j := range grid[kk] {
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						g.AddEdge(i, j)
					}
				}
			}
		}
	}
	return g
}

// WattsStrogatz returns a small-world graph: ring lattice with k nearest
// neighbors per side, each edge rewired with probability beta.
func WattsStrogatz(r *rng.Rand, n, k int, beta float64) *Graph {
	if k < 1 || 2*k >= n {
		panic("graph: WattsStrogatz requires 1 <= k and 2k < n")
	}
	g := NewWithNodes(n)
	for i := 0; i < n; i++ {
		for j := 1; j <= k; j++ {
			u, v := i, (i+j)%n
			if r.Float64() < beta {
				// Rewire to a uniform non-self, non-duplicate target.
				for tries := 0; tries < 100; tries++ {
					w := r.Intn(n)
					if w != u && !g.HasEdge(u, w) {
						v = w
						break
					}
				}
			}
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// BarabasiAlbert returns a preferential-attachment graph: starting from a
// small clique, each new node attaches to k existing nodes with
// probability proportional to degree. Produces the heavy-tailed degree
// distributions under which mean-degree-based control is most stressed.
func BarabasiAlbert(r *rng.Rand, n, k int) *Graph {
	if k < 1 || n < k+1 {
		panic("graph: BarabasiAlbert requires n > k >= 1")
	}
	g := NewWithNodes(n)
	// Seed clique on the first k+1 nodes.
	var ends []int // repeated endpoint list: sampling ∝ degree
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			g.link(i, j)
			ends = append(ends, i, j)
		}
	}
	for v := k + 1; v < n; v++ {
		// v's own endpoints enter ends only once it has all k targets, so
		// a draw never returns v; targets attach in draw order, which
		// keeps the graph a function of the seed.
		from := len(ends)
		for attached := 0; attached < k; {
			u := ends[r.Intn(from)]
			if !g.HasEdge(u, v) {
				g.link(u, v)
				ends = append(ends, u, v)
				attached++
			}
		}
	}
	return g
}
