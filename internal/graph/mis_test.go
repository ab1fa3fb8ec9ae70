package graph

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestGreedyMISOnPath(t *testing.T) {
	g := Path(4) // 0-1-2-3
	sel, rej := GreedyMIS(g, []int{0, 1, 2, 3})
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 2 {
		t.Fatalf("selected %v", sel)
	}
	if len(rej) != 2 || rej[0] != 1 || rej[1] != 3 {
		t.Fatalf("rejected %v", rej)
	}
}

// The commit rule: a node aborts only due to *committed* earlier
// neighbors. On the path 1-2-3 with order (1,2,3): 1 commits, 2 aborts
// (neighbor 1 committed), 3 commits because its only earlier neighbor 2
// aborted — exactly the paper's description of π_m semantics.
func TestGreedyMISAbortedNeighborDoesNotBlock(t *testing.T) {
	g := Path(4)
	sel, _ := GreedyMIS(g, []int{1, 2, 3})
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 3 {
		t.Fatalf("selected %v, want [1 3]", sel)
	}
}

func TestGreedyMISIsMaximalOnFullOrder(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 30; trial++ {
		g := RandomGNM(r, 40, 100)
		order := g.SampleNodes(r, g.NumNodes())
		sel, rej := GreedyMIS(g, order)
		if !IsMaximalIndependentSet(g, sel) {
			t.Fatalf("trial %d: greedy MIS over full order not maximal", trial)
		}
		if len(sel)+len(rej) != g.NumNodes() {
			t.Fatalf("trial %d: partition broken", trial)
		}
	}
}

func TestGreedyMISSizeMatchesGreedyMIS(t *testing.T) {
	r := rng.New(2)
	g := RandomGNM(r, 50, 120)
	for trial := 0; trial < 20; trial++ {
		order := g.SampleNodes(r, 30)
		sel, _ := GreedyMIS(g, order)
		if got := GreedyMISSize(g, order); got != len(sel) {
			t.Fatalf("size %d, want %d", got, len(sel))
		}
	}
}

func TestGreedyMISCompleteGraph(t *testing.T) {
	g := Complete(10)
	r := rng.New(3)
	order := g.SampleNodes(r, 7)
	sel, rej := GreedyMIS(g, order)
	if len(sel) != 1 {
		t.Fatalf("complete graph commits %d, want 1", len(sel))
	}
	if sel[0] != order[0] {
		t.Fatal("first in order must commit")
	}
	if len(rej) != 6 {
		t.Fatalf("rejected %d", len(rej))
	}
}

func TestGreedyMISEmptyGraphAllCommit(t *testing.T) {
	g := Empty(10)
	r := rng.New(4)
	order := g.SampleNodes(r, 10)
	sel, rej := GreedyMIS(g, order)
	if len(sel) != 10 || len(rej) != 0 {
		t.Fatalf("sel=%d rej=%d", len(sel), len(rej))
	}
}

// Turán (Thm. 1, strong form): expected greedy MIS size over random
// permutations is at least n/(d+1).
func TestTuranLowerBound(t *testing.T) {
	r := rng.New(5)
	cases := []struct {
		name string
		g    *Graph
	}{
		{"random", RandomGNM(r, 200, 800)},
		{"cliques", CliqueUnion(200, 7)},
		{"grid", Grid2D(14, 14)},
		{"ba", BarabasiAlbert(r, 200, 4)},
		{"star", Star(100)},
	}
	for _, c := range cases {
		n := float64(c.g.NumNodes())
		d := c.g.AvgDegree()
		bound := n / (d + 1)
		got := expectedMIS(c.g, r, c.g.NumNodes(), 300)
		// Allow tiny Monte Carlo slack below the bound.
		if got < bound*0.97 {
			t.Errorf("%s: E[MIS] = %.2f below Turán bound %.2f", c.name, got, bound)
		}
	}
}

// Remark 2: on K^n_d every maximal independent set has exactly n/(d+1)
// nodes, so the Turán bound is tight there.
func TestTuranTightOnCliqueUnion(t *testing.T) {
	r := rng.New(6)
	g := CliqueUnion(120, 5) // 20 cliques of size 6
	got := expectedMIS(g, r, g.NumNodes(), 50)
	if got != 20 {
		t.Fatalf("E[MIS] on K^n_d = %v, want exactly 20", got)
	}
}

func TestNoEarlierNeighborLowerBoundsGreedy(t *testing.T) {
	r := rng.New(7)
	g := RandomGNM(r, 80, 300)
	for trial := 0; trial < 50; trial++ {
		order := g.SampleNodes(r, 40)
		b := NoEarlierNeighborCount(g, order)
		m := GreedyMISSize(g, order)
		if b > m {
			t.Fatalf("b=%d exceeds greedy MIS size %d", b, m)
		}
	}
}

// On clique unions the two coincide (b_m(K^n_d) = EM_m(K^n_d) in the
// proof of Thm. 2): within a clique the first active node has no earlier
// neighbor and every later one has the committed first as neighbor.
func TestNoEarlierNeighborEqualsGreedyOnCliqueUnion(t *testing.T) {
	r := rng.New(8)
	g := CliqueUnion(60, 4)
	for trial := 0; trial < 50; trial++ {
		order := g.SampleNodes(r, 30)
		if NoEarlierNeighborCount(g, order) != GreedyMISSize(g, order) {
			t.Fatal("b != greedy MIS size on clique union")
		}
	}
}

func TestIsIndependentSet(t *testing.T) {
	g := Path(4)
	if !IsIndependentSet(g, []int{0, 2}) {
		t.Fatal("{0,2} is independent in the path")
	}
	if IsIndependentSet(g, []int{0, 1}) {
		t.Fatal("{0,1} is not independent")
	}
	if !IsIndependentSet(g, nil) {
		t.Fatal("empty set is independent")
	}
}

func TestIsMaximalIndependentSet(t *testing.T) {
	g := Path(5) // 0-1-2-3-4
	if !IsMaximalIndependentSet(g, []int{0, 2, 4}) {
		t.Error("{0,2,4} should be maximal in P5")
	}
	if !IsMaximalIndependentSet(g, []int{0, 3}) {
		// 1 is blocked by 0; 2 and 4 are blocked by 3.
		t.Error("{0,3} should be maximal in P5")
	}
	if IsMaximalIndependentSet(g, []int{0, 2}) {
		t.Error("{0,2} is not maximal in P5: node 4 is addable")
	}
	if IsMaximalIndependentSet(g, []int{0, 1}) {
		t.Error("{0,1} is not even independent")
	}
}

func TestExpectedInducedMISInterpolates(t *testing.T) {
	r := rng.New(9)
	g := RandomGNM(r, 100, 400)
	em10 := expectedMIS(g, r, 10, 400)
	em60 := expectedMIS(g, r, 60, 400)
	emN := expectedMIS(g, r, 100, 400)
	if !(em10 < em60 && em60 <= emN+1e-9) {
		t.Fatalf("EM_m not increasing: %v %v %v", em10, em60, emN)
	}
	full := expectedMIS(g, r, g.NumNodes(), 400)
	if math.Abs(emN-full) > 0.05*full {
		t.Fatalf("EM_n=%v disagrees with full-permutation estimate %v", emN, full)
	}
}

func TestMISScratchMatchesMap(t *testing.T) {
	r := rng.New(11)
	var scratch MISScratch
	for trial := 0; trial < 40; trial++ {
		g := RandomGNM(r, 60, 150+trial)
		for rep := 0; rep < 10; rep++ {
			order := g.SampleNodes(r, 20+trial%40)
			if got, want := scratch.Size(g, order), GreedyMISSize(g, order); got != want {
				t.Fatalf("trial %d: scratch %d vs map %d", trial, got, want)
			}
		}
		// Interleave graph mutation: IDs grow, scratch must follow.
		v := g.AddNode()
		u := g.Nodes()[r.Intn(g.NumNodes())]
		if u != v {
			g.AddEdge(u, v)
		}
		order := g.SampleNodes(r, g.NumNodes())
		if got, want := scratch.Size(g, order), GreedyMISSize(g, order); got != want {
			t.Fatalf("after growth: scratch %d vs map %d", got, want)
		}
	}
}

func BenchmarkGreedyMISMap(b *testing.B) {
	r := rng.New(12)
	g := RandomGNM(r, 2000, 16000)
	order := g.SampleNodes(r, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyMISSize(g, order)
	}
}

func BenchmarkGreedyMISScratch(b *testing.B) {
	r := rng.New(12)
	g := RandomGNM(r, 2000, 16000)
	order := g.SampleNodes(r, 500)
	var scratch MISScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.Size(g, order)
	}
}

// BenchmarkGraphBuildDrain is the mutable graph's life in a cc job: build
// the paper's random graph, then commit (remove) every node.
func BenchmarkGraphBuildDrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := RandomWithAvgDegree(rng.New(12), 10000, 16)
		for g.NumNodes() > 0 {
			g.RemoveNode(g.NodeAt(g.NumNodes() - 1))
		}
	}
}
