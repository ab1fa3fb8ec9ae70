package graph

// ConnectedComponents returns the live nodes grouped by connected
// component. Each inner slice is one component (order unspecified
// within and across components except that the first element of each
// is its smallest node ID).
func (g *Graph) ConnectedComponents() [][]int {
	seen := make([]bool, len(g.pos))
	var comps [][]int
	for _, start := range g.nodes {
		if seen[start] {
			continue
		}
		var comp []int
		queue := []int{start}
		seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for _, a := range g.adj[v] {
				if u := int(a.to); !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		// Normalize: smallest ID first, for deterministic reporting.
		minIdx := 0
		for i, v := range comp {
			if v < comp[minIdx] {
				minIdx = i
			}
		}
		comp[0], comp[minIdx] = comp[minIdx], comp[0]
		comps = append(comps, comp)
	}
	return comps
}

// NumComponents returns the number of connected components.
func (g *Graph) NumComponents() int { return len(g.ConnectedComponents()) }

// BFSDistances returns hop distances from src to every reachable node
// (src included at distance 0). Unreachable nodes are absent from the
// map. It panics if src is not live.
func (g *Graph) BFSDistances(src int) map[int]int {
	if !g.Has(src) {
		panic("graph: BFSDistances from dead node")
	}
	dist := map[int]int{src: 0}
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range g.adj[v] {
			u := int(a.to)
			if _, ok := dist[u]; !ok {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// InducedSubgraph returns a new graph containing only the given nodes
// (dead IDs ignored) and the edges among them. Node IDs are preserved.
func (g *Graph) InducedSubgraph(nodes []int) *Graph {
	sub := New()
	for _, v := range nodes {
		if g.Has(v) {
			sub.addNodeID(v)
		}
	}
	for _, v := range sub.nodes {
		for _, a := range g.adj[v] {
			if u := int(a.to); u > v && sub.Has(u) {
				sub.link(v, u)
			}
		}
	}
	return sub
}

// MaxDegree returns the largest degree among live nodes (0 when empty).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, v := range g.nodes {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}
