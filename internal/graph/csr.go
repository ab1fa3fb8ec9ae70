package graph

import (
	"runtime"
	"sync"

	"repro/internal/rng"
)

// CSR is an immutable compressed-sparse-row snapshot of a Graph, the flat
// adjacency layout the Monte Carlo estimators iterate over. Where the
// mutable Graph keeps one growable list per node (and a back index per
// arc, so it can delete), the snapshot packs all neighbor lists into one
// contiguous slice indexed by an offsets array, so a greedy-MIS sweep
// touches memory sequentially.
//
// Nodes are renumbered to dense indices 0..n−1 (the Graph's internal
// sampling order at snapshot time); ID and IndexOf translate between the
// dense numbering and the original node IDs. A CSR shares no state with
// the Graph it was built from and is safe for concurrent readers, which
// is what lets estimator reps shard across workers without locks.
type CSR struct {
	offsets []int32 // offsets[i]..offsets[i+1] bound the neighbors of dense node i
	nbrs    []int32 // packed neighbor lists, as dense indices
	ids     []int   // dense index -> original node ID
	remap   []int32 // original node ID -> dense index, −1 for dead IDs
}

// NewCSR builds the snapshot in one pass over g's adjacency. Cost is
// O(n + E) time and exactly three allocations proportional to the graph.
func NewCSR(g *Graph) *CSR {
	n := len(g.nodes)
	c := &CSR{
		offsets: make([]int32, n+1),
		nbrs:    make([]int32, 2*g.edges),
		ids:     append([]int(nil), g.nodes...),
		remap:   make([]int32, len(g.pos)),
	}
	for i := range c.remap {
		c.remap[i] = -1
	}
	for i, id := range g.nodes {
		c.remap[id] = int32(i)
	}
	off := int32(0)
	for i, id := range g.nodes {
		c.offsets[i] = off
		for _, a := range g.adj[id] {
			c.nbrs[off] = c.remap[a.to]
			off++
		}
	}
	c.offsets[n] = off
	return c
}

// NumNodes returns the number of snapshotted nodes.
func (c *CSR) NumNodes() int { return len(c.ids) }

// NumEdges returns the number of snapshotted undirected edges.
func (c *CSR) NumEdges() int { return len(c.nbrs) / 2 }

// Degree returns the degree of dense node i.
func (c *CSR) Degree(i int) int { return int(c.offsets[i+1] - c.offsets[i]) }

// Neighbors returns the packed neighbor list of dense node i. The slice
// aliases the snapshot and must not be modified.
func (c *CSR) Neighbors(i int) []int32 { return c.nbrs[c.offsets[i]:c.offsets[i+1]] }

// ID returns the original node ID of dense index i.
func (c *CSR) ID(i int) int { return c.ids[i] }

// IndexOf returns the dense index of original node ID, or −1 if the node
// was not live at snapshot time.
func (c *CSR) IndexOf(id int) int {
	if id < 0 || id >= len(c.remap) {
		return -1
	}
	return int(c.remap[id])
}

// CSRScratch holds the reusable per-worker state of the CSR Monte Carlo
// kernels: an epoch-marked selected array (no clearing between reps) and
// the in-place partial Fisher–Yates buffer used to draw random orders
// without allocating. The zero value is ready; a scratch is not safe for
// concurrent use — give each worker its own.
type CSRScratch struct {
	mark  []uint64
	epoch uint64
	perm  []int32
}

func (s *CSRScratch) ensure(c *CSR) {
	n := c.NumNodes()
	if len(s.mark) < n {
		s.mark = make([]uint64, n)
		s.epoch = 0
	}
	if len(s.perm) != n {
		// perm must be a permutation of [0, n); it is re-seeded with the
		// identity whenever the snapshot size changes. Between reps it is
		// left in its shuffled state — a partial Fisher–Yates pass from
		// any permutation still yields a uniform ordered sample.
		if cap(s.perm) >= n {
			s.perm = s.perm[:n]
		} else {
			s.perm = make([]int32, n)
		}
		for i := range s.perm {
			s.perm[i] = int32(i)
		}
	}
}

// SampleOrder draws a uniform ordered sample of min(m, n) dense node
// indices via partial Fisher–Yates over the reusable buffer. The result
// aliases the scratch and is valid until the next SampleOrder call.
func (s *CSRScratch) SampleOrder(c *CSR, r *rng.Rand, m int) []int32 {
	s.ensure(c)
	n := len(s.perm)
	if m > n {
		m = n
	}
	for i := 0; i < m; i++ {
		j := i + r.Intn(n-i)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
	}
	return s.perm[:m]
}

// MISSize returns the greedy-MIS size of the given commit order (dense
// indices) without allocating.
func (s *CSRScratch) MISSize(c *CSR, order []int32) int {
	s.ensure(c)
	s.epoch++
	size := 0
	for _, v := range order {
		if s.admit(c, v) {
			size++
		}
	}
	return size
}

// admit applies the greedy commit rule to v under the current epoch:
// selected iff no neighbor was selected earlier this epoch.
func (s *CSRScratch) admit(c *CSR, v int32) bool {
	for _, u := range c.nbrs[c.offsets[v]:c.offsets[v+1]] {
		if s.mark[u] == s.epoch {
			return false
		}
	}
	s.mark[v] = s.epoch
	return true
}

// Partition runs greedy MIS over the order (dense indices) and appends
// the selected and rejected nodes, in commit order, to the given buffers.
func (s *CSRScratch) Partition(c *CSR, order []int32, selected, rejected []int32) ([]int32, []int32) {
	s.ensure(c)
	s.epoch++
	for _, v := range order {
		if s.admit(c, v) {
			selected = append(selected, v)
		} else {
			rejected = append(rejected, v)
		}
	}
	return selected, rejected
}

// SampleMISSize fuses SampleOrder and MISSize into a single pass: each
// sampled node is pushed through the greedy commit rule as soon as it is
// drawn. This is the inner loop of every Monte Carlo estimator — one rep,
// zero allocations.
func (s *CSRScratch) SampleMISSize(c *CSR, r *rng.Rand, m int) int {
	s.ensure(c)
	n := len(s.perm)
	if m > n {
		m = n
	}
	s.epoch++
	size := 0
	for i := 0; i < m; i++ {
		j := i + r.Intn(n-i)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
		if s.admit(c, s.perm[i]) {
			size++
		}
	}
	return size
}

// MISMoments is the Monte Carlo primitive every estimator reduces to: it
// draws reps independent random length-m commit orders, runs greedy MIS
// over each, and returns the sum and sum of squares of the MIS sizes.
// reps must be positive.
//
// Determinism contract: reps are sharded into contiguous blocks across
// workers (worker w handles block w); worker streams are derived from r
// by calling Split exactly workers times in worker order, and the
// integer partial sums are reduced in worker order. The result is
// therefore a pure function of (r's state, m, reps, workers) — rerunning
// with the same seed, reps, and worker count is bit-identical, while
// changing workers yields a statistically equivalent re-draw. workers ≤ 0
// means GOMAXPROCS; one worker runs on the caller's goroutine.
func (c *CSR) MISMoments(r *rng.Rand, m, reps, workers int) (sum, sumSq int64) {
	if reps <= 0 {
		panic("graph: MISMoments requires positive reps")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > reps {
		workers = reps
	}
	if workers == 1 {
		return misMomentsSerial(c, r.Split(), m, reps)
	}
	streams := make([]*rng.Rand, workers)
	for w := range streams {
		streams[w] = r.Split()
	}
	sums := make([]int64, workers)
	sqs := make([]int64, workers)
	base, extra := reps/workers, reps%workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wreps := base
		if w < extra {
			wreps++
		}
		wg.Add(1)
		go func(w, wreps int) {
			defer wg.Done()
			sums[w], sqs[w] = misMomentsSerial(c, streams[w], m, wreps)
		}(w, wreps)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		sum += sums[w]
		sumSq += sqs[w]
	}
	return sum, sumSq
}

// csrScratchPool recycles worker scratch across MISMoments and ColorCSR
// calls, so repeated estimates (curves, bisections) and re-colorings stop
// allocating once warm.
var csrScratchPool = sync.Pool{New: func() any { return new(CSRScratch) }}

func misMomentsSerial(c *CSR, r *rng.Rand, m, reps int) (sum, sumSq int64) {
	s := csrScratchPool.Get().(*CSRScratch)
	// Canonicalize the sampling buffer: a recycled scratch carries the
	// previous caller's shuffle, and the determinism contract requires
	// the draw sequence to depend only on the rng stream. Truncating
	// makes ensure() rebuild the identity in place, allocation-free.
	s.perm = s.perm[:0]
	for i := 0; i < reps; i++ {
		sz := int64(s.SampleMISSize(c, r, m))
		sum += sz
		sumSq += sz * sz
	}
	csrScratchPool.Put(s)
	return sum, sumSq
}
