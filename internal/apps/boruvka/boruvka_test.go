package boruvka

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/rng"
	"repro/internal/speculation"
)

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Components() != 5 {
		t.Fatalf("components = %d", uf.Components())
	}
	if uf.Union(0, 1) < 0 {
		t.Fatal("first union failed")
	}
	if uf.Union(1, 0) != -1 {
		t.Fatal("re-union did not report joined")
	}
	uf.Union(2, 3)
	uf.Union(0, 2)
	if uf.Components() != 2 {
		t.Fatalf("components = %d, want 2", uf.Components())
	}
	if uf.Find(3) != uf.Find(1) {
		t.Fatal("3 and 1 should share a root")
	}
	if uf.Find(4) == uf.Find(0) {
		t.Fatal("4 should be separate")
	}
}

func TestKruskalTriangle(t *testing.T) {
	g := &WGraph{N: 3, Edges: []Edge{
		{U: 0, V: 1, W: 1, ID: 0},
		{U: 1, V: 2, W: 2, ID: 1},
		{U: 0, V: 2, W: 3, ID: 2},
	}}
	res := Kruskal(g)
	if len(res.Edges) != 2 || math.Abs(res.Weight-3) > 1e-12 {
		t.Fatalf("MST weight %v with %d edges", res.Weight, len(res.Edges))
	}
}

func TestSequentialMatchesKruskal(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		g := NewRandomConnected(r, 50+trial*10, 100+trial*20)
		seq := Sequential(g)
		if err := Verify(g, seq); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(seq.Edges) != g.N-1 {
			t.Fatalf("trial %d: spanning tree has %d edges for n=%d", trial, len(seq.Edges), g.N)
		}
		// Boruvka needs at most log2(n) rounds.
		if float64(seq.Rounds) > math.Log2(float64(g.N))+1 {
			t.Errorf("trial %d: %d rounds exceeds log bound", trial, seq.Rounds)
		}
	}
}

func TestSequentialDisconnected(t *testing.T) {
	// Two components: forest of n-2 edges.
	g := &WGraph{N: 4, Edges: []Edge{
		{U: 0, V: 1, W: 1, ID: 0},
		{U: 2, V: 3, W: 2, ID: 1},
	}}
	res := Sequential(g)
	if len(res.Edges) != 2 {
		t.Fatalf("forest edges = %d, want 2", len(res.Edges))
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialSingleVertex(t *testing.T) {
	g := &WGraph{N: 1}
	res := Sequential(g)
	if len(res.Edges) != 0 || res.Rounds != 0 {
		t.Fatalf("unexpected work on trivial graph: %+v", res)
	}
}

func TestSpeculativeFixedM(t *testing.T) {
	r := rng.New(2)
	g := NewRandomConnected(r, 200, 400)
	s := NewSpeculativeMSF(g, func(n int) int { return r.Intn(n) })
	rounds := 0
	for s.Executor().Pending() > 0 {
		s.Executor().Round(16)
		rounds++
		if rounds > 100000 {
			t.Fatal("did not drain")
		}
	}
	res := s.Result()
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != g.N-1 {
		t.Fatalf("%d MSF edges, want %d", len(res.Edges), g.N-1)
	}
}

func TestSpeculativeAdaptive(t *testing.T) {
	r := rng.New(3)
	g := NewRandomConnected(r, 500, 1500)
	s := NewSpeculativeMSF(g, func(n int) int { return r.Intn(n) })
	ctrl := control.NewHybrid(control.DefaultHybridConfig(0.25))
	res := speculation.RunAdaptive(s.Executor(), ctrl, 1000000)
	if s.Executor().Pending() != 0 {
		t.Fatal("did not drain")
	}
	if res.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	if err := Verify(g, s.Result()); err != nil {
		t.Fatal(err)
	}
	// Merges of overlapping components must conflict at least sometimes
	// in a 500-node graph driven to high m.
	if s.Executor().TotalAborted() == 0 {
		t.Error("no conflicts detected — component locking suspicious")
	}
}

func TestSpeculativeDisconnected(t *testing.T) {
	r := rng.New(4)
	g := &WGraph{N: 6, Edges: []Edge{
		{U: 0, V: 1, W: 0.3, ID: 0},
		{U: 1, V: 2, W: 0.1, ID: 1},
		{U: 3, V: 4, W: 0.9, ID: 2},
	}} // vertex 5 isolated
	s := NewSpeculativeMSF(g, func(n int) int { return r.Intn(n) })
	for s.Executor().Pending() > 0 {
		s.Executor().Round(3)
	}
	res := s.Result()
	if len(res.Edges) != 3 {
		t.Fatalf("forest edges = %d, want 3", len(res.Edges))
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
}

func TestNewRandomConnectedIsConnected(t *testing.T) {
	r := rng.New(5)
	g := NewRandomConnected(r, 100, 0) // pure spanning tree
	if len(g.Edges) != 99 {
		t.Fatalf("%d edges, want 99", len(g.Edges))
	}
	uf := NewUnionFind(g.N)
	for _, e := range g.Edges {
		uf.Union(e.U, e.V)
	}
	if uf.Components() != 1 {
		t.Fatalf("not connected: %d components", uf.Components())
	}
}
