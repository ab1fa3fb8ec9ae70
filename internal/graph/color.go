package graph

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the coloring kernel behind the executor's colored
// mode: a Rokos-style speculative parallel graph coloring over a CSR
// snapshot. Workers first-fit color their shard of the worklist
// optimistically (reading neighbor colors that other workers may be
// writing), then a detection sweep finds edges whose endpoints collided
// and re-queues only the defective endpoints; the loop repeats until the
// coloring is proper. Both phases reuse CSRScratch's epoch-marked arrays
// so repeated colorings stop allocating once the pool is warm.

// maxColorIters bounds the speculative detect-and-recolor loop. Rokos et
// al. observe convergence in a handful of rounds; if the cap is ever hit
// the remaining defects are fixed by one serial pass, which restores a
// proper coloring unconditionally.
const maxColorIters = 32

// colorParallelCutoff is the snapshot size below which the serial
// first-fit path is used regardless of the requested worker count: the
// per-iteration goroutine fan-out costs more than coloring the whole
// graph in place.
const colorParallelCutoff = 2048

// ColorCSR assigns a proper vertex coloring to the snapshot and returns
// the color array (dense index -> color in [0, numColors)) plus the
// number of colors used. The colors buffer is reused when its capacity
// suffices, so steady-state re-colorings of same-sized snapshots do not
// allocate. workers ≤ 0 means GOMAXPROCS; one worker (or a small graph)
// takes the deterministic serial first-fit path.
//
// The coloring always uses at most maxDegree+1 colors: every first-fit
// pick, speculative or not, avoids only the ≤ deg(v) colors observed on
// v's neighbors. Parallel runs may produce different (still proper)
// colorings from run to run; serial runs are deterministic.
func ColorCSR(c *CSR, colors []int32, workers int) ([]int32, int) {
	n := c.NumNodes()
	if cap(colors) >= n {
		colors = colors[:n]
	} else {
		colors = make([]int32, n)
	}
	for i := range colors {
		colors[i] = -1
	}
	if n == 0 {
		return colors, 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || n < colorParallelCutoff {
		s := csrScratchPool.Get().(*CSRScratch)
		s.ensure(c)
		for v := int32(0); v < int32(n); v++ {
			colors[v] = firstFree(c, colors, v, s)
		}
		csrScratchPool.Put(s)
		return colors, countColors(colors)
	}
	colorParallel(c, colors, workers)
	return colors, countColors(colors)
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

// firstFreeAtomic is firstFree with atomic neighbor reads, for the
// speculative phase where other workers may be writing neighbor colors
// concurrently. A stale read can at worst cause a detectable conflict;
// it can never push the pick past deg(v) distinct forbidden colors, so
// the maxDegree+1 bound survives the races.
func firstFreeAtomic(c *CSR, colors []int32, v int32, s *CSRScratch) int32 {
	s.epoch++
	e := s.epoch
	for _, u := range c.nbrs[c.offsets[v]:c.offsets[v+1]] {
		if cu := atomic.LoadInt32(&colors[u]); cu >= 0 {
			s.mark[cu] = e
		}
	}
	for col := int32(0); ; col++ {
		if s.mark[col] != e {
			return col
		}
	}
}

// colorParallel runs the speculative detect-and-recolor loop.
func colorParallel(c *CSR, colors []int32, workers int) {
	n := c.NumNodes()
	work := make([]int32, n)
	for i := range work {
		work[i] = int32(i)
	}
	// Per-worker defect buffers, reused across iterations.
	defects := make([][]int32, workers)

	var wg sync.WaitGroup
	for iter := 0; iter < maxColorIters && len(work) > 0; iter++ {
		// Phase 1: speculative first-fit over worklist shards. Writes are
		// atomic so concurrent neighbor reads are race-free; collisions
		// are caught by phase 2.
		shard := (len(work) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * shard
			if lo >= len(work) {
				break
			}
			hi := lo + shard
			if hi > len(work) {
				hi = len(work)
			}
			wg.Add(1)
			go func(part []int32) {
				defer wg.Done()
				s := csrScratchPool.Get().(*CSRScratch)
				s.ensure(c)
				for _, v := range part {
					atomic.StoreInt32(&colors[v], firstFreeAtomic(c, colors, v, s))
				}
				csrScratchPool.Put(s)
			}(work[lo:hi])
		}
		wg.Wait()

		// Phase 2: detect defective endpoints. For a monochromatic edge
		// the lower dense index keeps its color and the higher one is
		// re-queued, so every conflict shrinks by at least one endpoint.
		// Colors are quiescent here; plain reads are safe.
		for w := 0; w < workers; w++ {
			lo := w * shard
			if lo >= len(work) {
				break
			}
			hi := lo + shard
			if hi > len(work) {
				hi = len(work)
			}
			if defects[w] == nil {
				defects[w] = make([]int32, 0, hi-lo)
			}
			wg.Add(1)
			go func(w int, part []int32) {
				defer wg.Done()
				d := defects[w][:0]
				for _, v := range part {
					cv := colors[v]
					for _, u := range c.nbrs[c.offsets[v]:c.offsets[v+1]] {
						if u < v && colors[u] == cv {
							d = append(d, v)
							break
						}
					}
				}
				defects[w] = d
			}(w, work[lo:hi])
		}
		wg.Wait()

		work = work[:0]
		for w := 0; w < workers; w++ {
			work = append(work, defects[w]...)
		}
	}

	// Serial cleanup for any defects surviving the iteration cap: each
	// recolor avoids all current neighbor colors, so one pass restores a
	// proper coloring.
	if len(work) > 0 {
		s := csrScratchPool.Get().(*CSRScratch)
		s.ensure(c)
		for _, v := range work {
			colors[v] = firstFree(c, colors, v, s)
		}
		csrScratchPool.Put(s)
	}
}

func countColors(colors []int32) int {
	max := int32(-1)
	for _, col := range colors {
		if col > max {
			max = col
		}
	}
	return int(max + 1)
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
