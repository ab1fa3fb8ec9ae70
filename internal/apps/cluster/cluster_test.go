package cluster

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/rng"
	"repro/internal/speculation"
)

// Live returns the IDs of the live clusters in storage order: creation
// order, except that each merge moves the last live cluster into the
// slot of a cluster it retired.
func (c *Clustering) Live() []int {
	out := make([]int, len(c.live))
	for i, cl := range c.live {
		out[i] = cl.ID
	}
	return out
}

func TestNewClustering(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {0, 1}}
	c := New(pts)
	if c.NumClusters() != 3 {
		t.Fatalf("clusters = %d", c.NumClusters())
	}
	for _, id := range c.Live() {
		cl := c.Get(id)
		if cl.Size != 1 {
			t.Fatalf("singleton size %d", cl.Size)
		}
	}
}

func TestNearestDeterministic(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {3, 0}}
	c := New(pts)
	n0, d0, ok := c.Nearest(0)
	if !ok || n0 != 1 || math.Abs(d0-1) > 1e-12 {
		t.Fatalf("nearest(0) = %d (%v)", n0, d0)
	}
	n2, _, _ := c.Nearest(2)
	if n2 != 1 {
		t.Fatalf("nearest(2) = %d", n2)
	}
}

func TestNearestTieBreak(t *testing.T) {
	// Points 1 and 2 are equidistant from 0: lower ID wins.
	pts := []Point{{0, 0}, {1, 0}, {-1, 0}}
	c := New(pts)
	n, _, _ := c.Nearest(0)
	if n != 1 {
		t.Fatalf("tie-break picked %d, want 1", n)
	}
}

// bruteNearest is Nearest's specification: the live cluster other than
// id minimizing (d², ID), found from the live IDs alone.
func bruteNearest(c *Clustering, id int) (int, float64, bool) {
	self := c.Get(id)
	bestID, bestD, found := 0, 0.0, false
	for _, oid := range c.Live() {
		if oid == id {
			continue
		}
		d := dist2(self.Centroid, c.Get(oid).Centroid)
		if !found || d < bestD || (d == bestD && oid < bestID) {
			bestID, bestD, found = oid, d, true
		}
	}
	return bestID, bestD, found
}

// checkNearestAgainstBrute merges random pairs of pts until one cluster
// is left, comparing Nearest with bruteNearest for every live cluster
// before each merge. It reports how many answers had a tie to break.
func checkNearestAgainstBrute(t testing.TB, pts []Point, r *rng.Rand) (ties int) {
	c := New(pts)
	for {
		live := c.Live()
		for _, id := range live {
			gotID, gotD, gotOK := c.Nearest(id)
			wantID, wantD, wantOK := bruteNearest(c, id)
			if gotID != wantID || gotD != wantD || gotOK != wantOK {
				t.Fatalf("%d live: Nearest(%d) = (%d, %v, %v), brute force (%d, %v, %v)",
					len(live), id, gotID, gotD, gotOK, wantID, wantD, wantOK)
			}
			for _, oid := range live {
				if oid != id && oid != wantID && dist2(c.Get(id).Centroid, c.Get(oid).Centroid) == wantD {
					ties++
					break
				}
			}
		}
		if len(live) < 2 {
			break
		}
		i := r.Intn(len(live))
		j := r.Intn(len(live) - 1)
		if j >= i {
			j++
		}
		c.MergePair(live[i], live[j])
	}
	if err := c.CheckDendrogram(len(pts)); err != nil {
		t.Fatal(err)
	}
	return ties
}

// tiedPoints returns n random points of which every third repeats an
// earlier one, so equal centroids — and equal distances — are common.
func tiedPoints(r *rng.Rand, n int) []Point {
	pts := RandomPoints(r, n)
	for i := 2; i < n; i += 3 {
		pts[i] = pts[r.Intn(i)]
	}
	return pts
}

func TestNearestMatchesBruteForce(t *testing.T) {
	ties := 0
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		ties += checkNearestAgainstBrute(t, tiedPoints(r, 90), r)
	}
	if ties == 0 {
		t.Fatal("no tie ever occurred: the test does not exercise the tie-break")
	}
}

// FuzzNearest reads point sets from the fuzzer's bytes on a coarse grid,
// so duplicates and equal distances are the norm, and checks Nearest
// against the brute-force minimum over a random merge sequence.
func FuzzNearest(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3}, uint64(1))
	f.Add([]byte{5, 5, 5, 5, 9, 9, 1, 9, 9, 1}, uint64(2))
	f.Add([]byte{0, 0, 0, 2, 2, 0, 2, 2, 1, 1}, uint64(3))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		var pts []Point
		for i := 0; i+1 < len(raw) && len(pts) < 60; i += 2 {
			pts = append(pts, Point{float64(raw[i] % 16), float64(raw[i+1] % 16)})
		}
		if len(pts) == 0 {
			return
		}
		checkNearestAgainstBrute(t, pts, rng.New(seed))
	})
}

func TestSequentialIsDeterministic(t *testing.T) {
	pts := tiedPoints(rng.New(7), 120)
	a, b := New(pts), New(pts)
	a.Sequential(3)
	b.Sequential(3)
	if len(a.Merges) != len(b.Merges) {
		t.Fatalf("%d merges vs %d", len(a.Merges), len(b.Merges))
	}
	for i := range a.Merges {
		if a.Merges[i] != b.Merges[i] {
			t.Fatalf("merge %d: %+v vs %+v", i, a.Merges[i], b.Merges[i])
		}
	}
}

var nearestSink int

// BenchmarkClusterNearest prices one nearest-neighbor query among 1500
// live clusters, apps_mix's cluster size.
func BenchmarkClusterNearest(b *testing.B) {
	const n = 1500
	c := New(RandomPoints(rng.New(1), n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, _, _ := c.Nearest(i % n)
		nearestSink += id
	}
}

func TestMergePairCentroidAndSize(t *testing.T) {
	pts := []Point{{0, 0}, {2, 0}, {10, 10}}
	c := New(pts)
	p := c.MergePair(0, 1)
	m := c.Get(p)
	if m == nil || m.Size != 2 {
		t.Fatal("merged cluster wrong size")
	}
	if math.Abs(m.Centroid.X-1) > 1e-12 || m.Centroid.Y != 0 {
		t.Fatalf("centroid %v", m.Centroid)
	}
	if c.Get(0) != nil || c.Get(1) != nil {
		t.Fatal("children still live")
	}
	if len(c.Merges) != 1 || c.Merges[0].Dist != 2 {
		t.Fatalf("merge record %+v", c.Merges)
	}
	// Weighted merge: {(0,0),(2,0)} centroid (1,0) size 2 with (10,10).
	p2 := c.MergePair(p, 2)
	m2 := c.Get(p2)
	if math.Abs(m2.Centroid.X-4) > 1e-12 || math.Abs(m2.Centroid.Y-10.0/3) > 1e-12 {
		t.Fatalf("weighted centroid %v", m2.Centroid)
	}
}

func TestSequentialToOneCluster(t *testing.T) {
	r := rng.New(1)
	pts := RandomPoints(r, 100)
	c := New(pts)
	merges := c.Sequential(1)
	if merges != 99 || c.NumClusters() != 1 {
		t.Fatalf("merges=%d clusters=%d", merges, c.NumClusters())
	}
	if err := c.CheckDendrogram(100); err != nil {
		t.Fatal(err)
	}
	root := c.Get(c.Live()[0])
	if root.Size != 100 {
		t.Fatalf("root size %d", root.Size)
	}
}

func TestSequentialToTarget(t *testing.T) {
	r := rng.New(2)
	c := New(RandomPoints(r, 60))
	c.Sequential(5)
	if c.NumClusters() != 5 {
		t.Fatalf("clusters = %d, want 5", c.NumClusters())
	}
	total := 0
	for _, id := range c.Live() {
		total += c.Get(id).Size
	}
	if total != 60 {
		t.Fatalf("points conserved: %d", total)
	}
}

func TestSpeculativeFixedM(t *testing.T) {
	r := rng.New(3)
	c := New(RandomPoints(r, 150))
	s := NewSpeculative(c, 1, func(n int) int { return r.Intn(n) })
	for rounds := 0; s.Executor().Pending() > 0; rounds++ {
		if rounds > 100000 {
			t.Fatal("did not drain")
		}
		s.Executor().Round(8)
	}
	if c.NumClusters() != 1 {
		t.Fatalf("stalled at %d clusters with no pending work", c.NumClusters())
	}
	if err := c.CheckDendrogram(150); err != nil {
		t.Fatal(err)
	}
	if c.Get(c.Live()[0]).Size != 150 {
		t.Fatal("root does not contain all points")
	}
}

func TestSpeculativeAdaptive(t *testing.T) {
	r := rng.New(4)
	c := New(RandomPoints(r, 400))
	s := NewSpeculative(c, 1, func(n int) int { return r.Intn(n) })
	ctrl := control.NewHybrid(control.DefaultHybridConfig(0.25))
	res := speculation.RunAdaptive(s.Executor(), ctrl, 1000000)
	if c.NumClusters() != 1 {
		t.Fatalf("clusters = %d", c.NumClusters())
	}
	if res.Rounds == 0 {
		t.Fatal("no rounds")
	}
	if err := c.CheckDendrogram(400); err != nil {
		t.Fatal(err)
	}
	if s.Executor().TotalAborted() == 0 {
		t.Error("merges never conflicted — locking suspicious")
	}
}

func TestSpeculativeRespectsTarget(t *testing.T) {
	r := rng.New(5)
	c := New(RandomPoints(r, 80))
	s := NewSpeculative(c, 10, func(n int) int { return r.Intn(n) })
	speculation.RunAdaptive(s.Executor(), control.Fixed{Procs: 8}, 100000)
	if c.NumClusters() != 10 {
		t.Fatalf("clusters = %d, want 10", c.NumClusters())
	}
	if err := c.CheckDendrogram(80); err != nil {
		t.Fatal(err)
	}
}

// The speculative dendrogram should be of comparable quality to the
// sequential one: compare the sum of merge distances (cost) within a
// generous factor (schedules differ, geometry is the same).
func TestSpeculativeQualityNearSequential(t *testing.T) {
	r := rng.New(6)
	pts := RandomPoints(r, 200)

	seq := New(pts)
	seq.Sequential(1)
	seqCost := 0.0
	for _, m := range seq.Merges {
		seqCost += m.Dist
	}

	par := New(pts)
	s := NewSpeculative(par, 1, func(n int) int { return r.Intn(n) })
	speculation.RunAdaptive(s.Executor(), control.NewHybrid(control.DefaultHybridConfig(0.25)), 1000000)
	parCost := 0.0
	for _, m := range par.Merges {
		parCost += m.Dist
	}
	if parCost > 1.5*seqCost || seqCost > 1.5*parCost {
		t.Fatalf("dendrogram costs diverge: seq %v vs spec %v", seqCost, parCost)
	}
}

// TestSpeculativeDrainsToTargetOnExecutorAlone drives the executor once,
// to drain, with nothing reseeded between drives — as apprun and specd's
// cluster workload do — over sizes 100–4000, seeds 1–8 and one or two
// pool workers. Every run must end at the target with a valid dendrogram
// and no work pending: merges and baton hand-offs keep the chains going.
func TestSpeculativeDrainsToTargetOnExecutorAlone(t *testing.T) {
	for _, size := range []int{100, 500, 1500, 4000} {
		for seed := uint64(1); seed <= 8; seed++ {
			for _, par := range []int{1, 2} {
				r := rng.New(seed)
				c := New(RandomPoints(r, size))
				s := NewSpeculative(c, 1, func(n int) int { return r.Intn(n) })
				e := s.Executor()
				e.MaxParallel = par
				speculation.RunAdaptive(e, control.NewHybrid(control.DefaultHybridConfig(0.25)), 1<<30)
				e.Close()
				if err := c.CheckDendrogram(size); err != nil {
					t.Errorf("size=%d seed=%d parallel=%d: %v", size, seed, par, err)
				}
				if p := e.Pending(); p != 0 || c.NumClusters() != 1 {
					t.Errorf("size=%d seed=%d parallel=%d: %d pending, %d clusters left",
						size, seed, par, p, c.NumClusters())
				}
			}
		}
	}
}
