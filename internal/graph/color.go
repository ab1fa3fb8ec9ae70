package graph

import "slices"

// This file implements the coloring kernel behind the executor's colored
// mode: serial first-fit over a CSR snapshot in dense-index order. The
// forbidden-color marks live in CSRScratch's epoch-marked array, so
// repeated colorings stop allocating once the pool is warm.

// ColorCSR assigns a proper vertex coloring to the snapshot and returns
// the color array (dense index -> color in [0, numColors)) plus the
// number of colors used. The colors buffer is reused when its capacity
// suffices, so steady-state re-colorings of same-sized snapshots do not
// allocate. Each node, in dense-index order, takes the smallest color no
// earlier neighbor holds: the coloring is a pure function of the
// snapshot and uses at most maxDegree+1 colors.
func ColorCSR(c *CSR, colors []int32) ([]int32, int) {
	n := c.NumNodes()
	if cap(colors) >= n {
		colors = colors[:n]
	} else {
		colors = make([]int32, n)
	}
	for i := range colors {
		colors[i] = -1
	}
	s := csrScratchPool.Get().(*CSRScratch)
	s.ensure(c)
	numColors := 0
	for v := int32(0); v < int32(n); v++ {
		colors[v] = firstFree(c, colors, v, s)
		numColors = max(numColors, int(colors[v])+1)
	}
	csrScratchPool.Put(s)
	return colors, numColors
}

// firstFree returns the smallest color not used by any colored neighbor
// of v. Forbidden colors are epoch-marked in s.mark, indexed by color
// value — safe because any candidate color is < n ≤ len(s.mark).
func firstFree(c *CSR, colors []int32, v int32, s *CSRScratch) int32 {
	s.epoch++
	e := s.epoch
	for _, u := range c.nbrs[c.offsets[v]:c.offsets[v+1]] {
		if cu := colors[u]; cu >= 0 {
			s.mark[cu] = e
		}
	}
	for col := int32(0); ; col++ {
		if s.mark[col] != e {
			return col
		}
	}
}

// IsProperColoring reports whether colors assigns every snapshotted node
// a color ≥ 0 with no monochromatic edge.
func IsProperColoring(c *CSR, colors []int32) bool {
	n := c.NumNodes()
	if len(colors) < n {
		return false
	}
	for v := 0; v < n; v++ {
		if colors[v] < 0 {
			return false
		}
		for _, u := range c.Neighbors(v) {
			if colors[u] == colors[v] && int(u) != v {
				return false
			}
		}
	}
	return true
}

// MaxDegreeCSR returns the maximum degree of the snapshot (0 for an
// empty snapshot).
func MaxDegreeCSR(c *CSR) int {
	max := 0
	for v := 0; v < c.NumNodes(); v++ {
		if d := c.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// NewCSRFromEdges builds a snapshot directly from an undirected edge
// list over dense node indices 0..n−1, without materializing a mutable
// Graph first — the constructor colored execution uses to turn a
// declared conflict graph into a colorable CSR. Self-loops are ignored and an
// edge listed more than once (two keys sharing two items) is one edge:
// rows come out sorted and deduplicated. Dense indices double as node
// IDs.
func NewCSRFromEdges(n int, edges [][2]int32) *CSR {
	c := &CSR{
		offsets: make([]int32, n+1),
		ids:     make([]int, n),
		remap:   make([]int32, n),
	}
	for i := 0; i < n; i++ {
		c.ids[i] = i
		c.remap[i] = int32(i)
	}
	deg := make([]int32, n)
	m := 0
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		deg[e[0]]++
		deg[e[1]]++
		m++
	}
	c.nbrs = make([]int32, 2*m)
	off := int32(0)
	for i := 0; i < n; i++ {
		c.offsets[i] = off
		off += deg[i]
	}
	c.offsets[n] = off
	// Fill pass: offsets temporarily double as write cursors, then are
	// rewound by subtracting the degrees.
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		c.nbrs[c.offsets[e[0]]] = e[1]
		c.offsets[e[0]]++
		c.nbrs[c.offsets[e[1]]] = e[0]
		c.offsets[e[1]]++
	}
	for i := 0; i < n; i++ {
		c.offsets[i] -= deg[i]
	}
	// Sort and deduplicate each row, compacting nbrs in place: the write
	// cursor never passes the row being read.
	w := int32(0)
	for i := 0; i < n; i++ {
		row := c.nbrs[c.offsets[i]:c.offsets[i+1]]
		slices.Sort(row)
		c.offsets[i] = w
		w += int32(copy(c.nbrs[w:], slices.Compact(row)))
	}
	c.offsets[n] = w
	c.nbrs = c.nbrs[:w]
	return c
}
