// Package cluster implements agglomerative (hierarchical) clustering
// with the mutual-nearest-neighbor merge rule — the paper's fourth
// motivating amorphous data-parallel workload (§1, citing Tan–Steinbach–
// Kumar). Any two clusters that are each other's nearest neighbors can
// merge; merges touching disjoint neighborhoods proceed in parallel,
// merges sharing a cluster conflict.
//
// Cluster distance is centroid distance (with cluster ID as the
// deterministic tie-breaker), under which mutual-nearest-neighbor
// merging yields a well-defined dendrogram.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Point is a 2D point.
type Point struct{ X, Y float64 }

// RandomPoints returns n uniform points in the unit square.
func RandomPoints(r *rng.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{r.Float64(), r.Float64()}
	}
	return pts
}

// Cluster is a live cluster: centroid and member count. ID identifies
// the cluster in the dendrogram.
type Cluster struct {
	ID       int
	Centroid Point
	Size     int
	idx      int // position in Clustering.live
}

// Merge is one dendrogram node: clusters A and B fused into Parent at
// the given centroid distance.
type Merge struct {
	A, B, Parent int
	Dist         float64
}

// Clustering is the shared mutable state of an agglomerative run. IDs
// are dense (n singletons, then one per merge), so byID is a slice with
// nil for merged-away clusters; live holds the live clusters densely, and
// at their centroids, which is all the nearest-neighbor scan reads.
type Clustering struct {
	byID   []*Cluster
	live   []*Cluster
	at     []Point // at[i] == live[i].Centroid
	Merges []Merge
}

// New builds the initial clustering: one singleton cluster per point.
func New(pts []Point) *Clustering {
	c := &Clustering{
		byID: make([]*Cluster, 0, 2*len(pts)),
		live: make([]*Cluster, 0, len(pts)),
		at:   make([]Point, 0, len(pts)),
	}
	for _, p := range pts {
		c.add(&Cluster{Centroid: p, Size: 1})
	}
	return c
}

// add gives cl the next ID and makes it live.
func (c *Clustering) add(cl *Cluster) {
	cl.ID, cl.idx = len(c.byID), len(c.live)
	c.byID = append(c.byID, cl)
	c.live = append(c.live, cl)
	c.at = append(c.at, cl.Centroid)
}

// remove retires cl, moving the last live cluster into its slot.
func (c *Clustering) remove(cl *Cluster) {
	n := len(c.live) - 1
	last := c.live[n]
	last.idx = cl.idx
	c.live[cl.idx], c.at[cl.idx] = last, c.at[n]
	c.live, c.at = c.live[:n], c.at[:n]
	c.byID[cl.ID] = nil
}

// NumClusters returns the number of live clusters.
func (c *Clustering) NumClusters() int { return len(c.live) }

// Get returns the live cluster with the given ID, or nil.
func (c *Clustering) Get(id int) *Cluster {
	if id < 0 || id >= len(c.byID) {
		return nil
	}
	return c.byID[id]
}

func dist2(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// closer orders candidate neighbors by (distance², ID) so nearest
// neighbors are unique.
func closer(d1 float64, id1 int, d2 float64, id2 int) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return id1 < id2
}

// Nearest returns the nearest other live cluster to id (by centroid
// distance, ties broken by ID) and the squared distance; ok is false if
// id is the only cluster. A linear scan of the live centroids; because
// closer is a total order, the answer does not depend on scan order.
func (c *Clustering) Nearest(id int) (int, float64, bool) {
	self := c.Get(id)
	if self == nil {
		panic(fmt.Sprintf("cluster: Nearest of dead cluster %d", id))
	}
	bestID, bestD := -1, math.Inf(1)
	for i, p := range c.at {
		d := dist2(self.Centroid, p)
		if d > bestD || i == self.idx {
			continue
		}
		if oid := c.live[i].ID; bestID < 0 || closer(d, oid, bestD, bestID) {
			bestID, bestD = oid, d
		}
	}
	if bestID < 0 {
		return 0, 0, false
	}
	return bestID, bestD, true
}

// MergePair fuses live clusters a and b into a new cluster (centroid =
// weighted mean) and records the dendrogram node. It returns the new ID.
func (c *Clustering) MergePair(a, b int) int {
	ca, cb := c.Get(a), c.Get(b)
	if ca == nil || cb == nil {
		panic(fmt.Sprintf("cluster: merging dead cluster %d/%d", a, b))
	}
	n := ca.Size + cb.Size
	merged := &Cluster{
		Centroid: Point{
			X: (ca.Centroid.X*float64(ca.Size) + cb.Centroid.X*float64(cb.Size)) / float64(n),
			Y: (ca.Centroid.Y*float64(ca.Size) + cb.Centroid.Y*float64(cb.Size)) / float64(n),
		},
		Size: n,
	}
	c.remove(ca)
	c.remove(cb)
	c.add(merged)
	c.Merges = append(c.Merges, Merge{
		A: a, B: b, Parent: merged.ID,
		Dist: math.Sqrt(dist2(ca.Centroid, cb.Centroid)),
	})
	return merged.ID
}

// Sequential agglomerates until target clusters remain (or 1), merging a
// mutual-nearest-neighbor pair per step, and returns the merge count.
func (c *Clustering) Sequential(target int) int {
	if target < 1 {
		target = 1
	}
	merges := 0
	for len(c.live) > target {
		// Find a mutual nearest-neighbor pair by following the
		// nearest-neighbor chain from the first live cluster to a
		// 2-cycle (one always exists).
		cur := c.live[0].ID
		prev := -1
		for {
			nxt, _, ok := c.Nearest(cur)
			if !ok {
				return merges
			}
			if nxt == prev {
				// cur and prev are mutual nearest neighbors.
				c.MergePair(prev, cur)
				merges++
				break
			}
			prev, cur = cur, nxt
		}
	}
	return merges
}

// CheckDendrogram verifies structural sanity of the recorded merges:
// every merge consumes two live IDs and produces a fresh one, and the
// final live set matches the clustering state.
func (c *Clustering) CheckDendrogram(initial int) error {
	live := map[int]bool{}
	for i := 0; i < initial; i++ {
		live[i] = true
	}
	next := initial
	for i, m := range c.Merges {
		if !live[m.A] || !live[m.B] || m.A == m.B {
			return fmt.Errorf("cluster: merge %d fuses non-live pair %d,%d", i, m.A, m.B)
		}
		if m.Parent != next {
			return fmt.Errorf("cluster: merge %d parent %d, want %d", i, m.Parent, next)
		}
		delete(live, m.A)
		delete(live, m.B)
		live[m.Parent] = true
		next++
	}
	if len(live) != len(c.live) {
		return fmt.Errorf("cluster: %d live per dendrogram, %d in state", len(live), len(c.live))
	}
	for i, cl := range c.live {
		if !live[cl.ID] || cl.idx != i || c.Get(cl.ID) != cl || c.at[i] != cl.Centroid {
			return fmt.Errorf("cluster: state has unexpected live cluster %d", cl.ID)
		}
	}
	return nil
}
