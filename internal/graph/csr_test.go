package graph

import (
	"testing"

	"repro/internal/rng"
)

// randomTestGraph builds a random graph with n nodes and edge probability
// p, with some nodes removed afterwards so CSR sees non-contiguous IDs.
func randomTestGraph(t testing.TB, r *rng.Rand, n int, p float64, removals int) *Graph {
	t.Helper()
	g := NewWithNodes(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	for i := 0; i < removals && g.NumNodes() > 0; i++ {
		g.RemoveNode(g.NodeAt(r.Intn(g.NumNodes())))
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("generator broke invariants: %v", err)
	}
	return g
}

func TestCSRSnapshotStructure(t *testing.T) {
	r := rng.New(7)
	g := randomTestGraph(t, r, 60, 0.1, 12)
	c := NewCSR(g)

	if c.NumNodes() != g.NumNodes() {
		t.Fatalf("NumNodes = %d, want %d", c.NumNodes(), g.NumNodes())
	}
	if c.NumEdges() != g.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", c.NumEdges(), g.NumEdges())
	}
	for i := 0; i < c.NumNodes(); i++ {
		id := c.ID(i)
		if c.IndexOf(id) != i {
			t.Fatalf("remap broken: IndexOf(ID(%d)=%d) = %d", i, id, c.IndexOf(id))
		}
		if c.Degree(i) != g.Degree(id) {
			t.Fatalf("degree mismatch at %d: %d vs %d", id, c.Degree(i), g.Degree(id))
		}
		for _, u := range c.Neighbors(i) {
			if !g.HasEdge(id, c.ID(int(u))) {
				t.Fatalf("CSR edge {%d,%d} not in graph", id, c.ID(int(u)))
			}
		}
	}
	if c.IndexOf(-1) != -1 || c.IndexOf(1<<30) != -1 {
		t.Fatal("IndexOf out-of-range should be -1")
	}
	// Snapshot independence: mutating g must not affect c.
	edges := c.NumEdges()
	for g.NumNodes() > 0 {
		g.RemoveNode(g.NodeAt(0))
	}
	if c.NumEdges() != edges {
		t.Fatal("CSR mutated by graph changes")
	}
}

// TestCSRGreedyMISEquivalence checks that the CSR kernel reproduces the
// map-based GreedyMIS exactly, node for node, on the same commit orders.
func TestCSRGreedyMISEquivalence(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		n := 5 + r.Intn(80)
		g := randomTestGraph(t, r, n, 0.15, r.Intn(5))
		c := NewCSR(g)
		var scratch CSRScratch
		for rep := 0; rep < 4; rep++ {
			m := r.Intn(g.NumNodes() + 1)
			order := g.SampleNodes(r, m)
			wantSel, wantRej := GreedyMIS(g, order)

			csrOrder := make([]int32, len(order))
			for i, id := range order {
				csrOrder[i] = int32(c.IndexOf(id))
			}
			if got, want := scratch.MISSize(c, csrOrder), len(wantSel); got != want {
				t.Fatalf("trial %d: CSR MIS size %d, map-based %d", trial, got, want)
			}
			sel, rej := scratch.Partition(c, csrOrder, nil, nil)
			if len(sel) != len(wantSel) || len(rej) != len(wantRej) {
				t.Fatalf("trial %d: partition sizes (%d,%d) vs (%d,%d)",
					trial, len(sel), len(rej), len(wantSel), len(wantRej))
			}
			for i, v := range sel {
				if c.ID(int(v)) != wantSel[i] {
					t.Fatalf("trial %d: selected[%d] = %d, want %d",
						trial, i, c.ID(int(v)), wantSel[i])
				}
			}
			for i, v := range rej {
				if c.ID(int(v)) != wantRej[i] {
					t.Fatalf("trial %d: rejected[%d] = %d, want %d",
						trial, i, c.ID(int(v)), wantRej[i])
				}
			}
		}
	}
}

// TestCSRSampleOrderUniform sanity-checks the in-place partial
// Fisher–Yates sampler: every draw is a set of m distinct in-range
// indices, and over many draws each node appears with roughly equal
// frequency even though the buffer is never reset to the identity.
func TestCSRSampleOrderUniform(t *testing.T) {
	r := rng.New(3)
	g := NewWithNodes(40)
	c := NewCSR(g)
	var s CSRScratch
	const m, draws = 10, 4000
	counts := make([]int, 40)
	seen := make(map[int32]bool, m)
	for i := 0; i < draws; i++ {
		order := s.SampleOrder(c, r, m)
		if len(order) != m {
			t.Fatalf("draw %d: len %d", i, len(order))
		}
		for k := range seen {
			delete(seen, k)
		}
		for _, v := range order {
			if v < 0 || int(v) >= 40 || seen[v] {
				t.Fatalf("draw %d: bad sample %v", i, order)
			}
			seen[v] = true
			counts[v]++
		}
	}
	want := float64(draws*m) / 40
	for v, got := range counts {
		if float64(got) < 0.8*want || float64(got) > 1.2*want {
			t.Fatalf("node %d drawn %d times, want ≈ %.0f", v, got, want)
		}
	}
}

// TestMISMomentsDeterminism pins the reproducibility contract: identical
// (seed, m, reps, workers) give bit-identical moments, for any worker
// count, including workers exceeding reps and the GOMAXPROCS default.
func TestMISMomentsDeterminism(t *testing.T) {
	g := randomTestGraph(t, rng.New(5), 300, 0.03, 20)
	c := NewCSR(g)
	for _, workers := range []int{0, 1, 2, 3, 8, 200} {
		s1, q1 := c.MISMoments(rng.New(42), 100, 64, workers)
		s2, q2 := c.MISMoments(rng.New(42), 100, 64, workers)
		if s1 != s2 || q1 != q2 {
			t.Fatalf("workers=%d: (%d,%d) != (%d,%d)", workers, s1, q1, s2, q2)
		}
		if s1 <= 0 || q1 < s1 {
			t.Fatalf("workers=%d: implausible moments (%d,%d)", workers, s1, q1)
		}
	}
}

// TestParallelExpectedMISAgreesWithSerial checks that sharding reps
// across workers re-draws the estimate without biasing it: four workers
// agree with the same kernel run serially (one worker, the caller's
// goroutine) within Monte Carlo tolerance, for full permutations and for
// length-m prefixes.
func TestParallelExpectedMISAgreesWithSerial(t *testing.T) {
	g := randomTestGraph(t, rng.New(9), 400, 0.02, 0)
	c := NewCSR(g)
	const reps = 3000
	mean := func(seed uint64, m, workers int) float64 {
		sum, _ := c.MISMoments(rng.New(seed), m, reps, workers)
		return float64(sum) / reps
	}
	for _, m := range []int{c.NumNodes(), 50} {
		serial := mean(1, m, 1)
		if par := mean(2, m, 4); relDiff(par, serial) > 0.03 {
			t.Fatalf("m=%d: 4 workers %.4f vs 1 worker %.4f", m, par, serial)
		}
	}
}

// expectedMIS estimates EM_m(g), the expected greedy-MIS size of m random
// nodes (m = n: of a full random permutation), on the CSR kernel at one
// worker — the primitive under sched.Estimator.ExpectedCommitted.
func expectedMIS(g *Graph, r *rng.Rand, m, reps int) float64 {
	sum, _ := NewCSR(g).MISMoments(r, m, reps, 1)
	return float64(sum) / float64(reps)
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	if m == 0 {
		return d
	}
	return d / m
}

// TestCSRScratchReuseAcrossSnapshots exercises the ensure() resizing
// paths: one scratch serving snapshots of different sizes must stay
// correct.
func TestCSRScratchReuseAcrossSnapshots(t *testing.T) {
	r := rng.New(17)
	var s CSRScratch
	for _, n := range []int{50, 8, 120, 120, 3} {
		g := randomTestGraph(t, r, n, 0.2, 0)
		c := NewCSR(g)
		order := g.SampleNodes(r, g.NumNodes())
		csrOrder := make([]int32, len(order))
		for i, id := range order {
			csrOrder[i] = int32(c.IndexOf(id))
		}
		want := GreedyMISSize(g, order)
		if got := s.MISSize(c, csrOrder); got != want {
			t.Fatalf("n=%d: CSR %d, map-based %d", n, got, want)
		}
		if got := s.SampleMISSize(c, r, g.NumNodes()); got < 1 || got > g.NumNodes() {
			t.Fatalf("n=%d: implausible fused MIS size %d", n, got)
		}
	}
}

func BenchmarkCSRMIS(b *testing.B) {
	// One Monte Carlo rep at the Fig. 2 configuration (n=2000, d=16,
	// m=n/4): sample an order and run greedy MIS, on the CSR engine.
	g := RandomWithAvgDegree(rng.New(2), 2000, 16)
	c := NewCSR(g)
	r := rng.New(3)
	var s CSRScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleMISSize(c, r, 500)
	}
}

func BenchmarkMapMIS(b *testing.B) {
	// The seed path for the same rep: map adjacency + PermPrefix sampling.
	g := RandomWithAvgDegree(rng.New(2), 2000, 16)
	r := rng.New(3)
	var s MISScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order := g.SampleNodes(r, 500)
		s.Size(g, order)
	}
}
