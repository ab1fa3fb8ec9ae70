package graph

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestAddNodesAndEdges(t *testing.T) {
	g := New()
	a := g.AddNode()
	b := g.AddNode()
	c := g.AddNode()
	if a == b || b == c {
		t.Fatal("node IDs not distinct")
	}
	if !g.AddEdge(a, b) {
		t.Fatal("AddEdge returned false for new edge")
	}
	if g.AddEdge(a, b) || g.AddEdge(b, a) {
		t.Fatal("duplicate edge reported as new")
	}
	if g.NumNodes() != 3 || g.NumEdges() != 1 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Fatal("edge not symmetric")
	}
	if g.HasEdge(a, c) {
		t.Fatal("phantom edge")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfEdgePanics(t *testing.T) {
	g := NewWithNodes(2)
	defer func() {
		if recover() == nil {
			t.Fatal("self-edge did not panic")
		}
	}()
	g.AddEdge(1, 1)
}

func TestEdgeToMissingNodePanics(t *testing.T) {
	g := NewWithNodes(2)
	defer func() {
		if recover() == nil {
			t.Fatal("edge to absent node did not panic")
		}
	}()
	g.AddEdge(0, 99)
}

func TestRemoveNode(t *testing.T) {
	g := NewWithNodes(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if !g.RemoveNode(2) {
		t.Fatal("RemoveNode returned false for live node")
	}
	if g.RemoveNode(2) {
		t.Fatal("RemoveNode returned true for dead node")
	}
	if g.NumNodes() != 3 || g.NumEdges() != 1 {
		t.Fatalf("after removal: nodes=%d edges=%d, want 3/1", g.NumNodes(), g.NumEdges())
	}
	if g.HasEdge(0, 2) || g.HasEdge(2, 3) {
		t.Fatal("edges to removed node survive")
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("unrelated edge removed")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := NewWithNodes(3)
	g.AddEdge(0, 1)
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge failed")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge of absent edge returned true")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("edges=%d", g.NumEdges())
	}
}

func TestNodeIDsStableAfterRemoval(t *testing.T) {
	g := NewWithNodes(5)
	g.RemoveNode(2)
	id := g.AddNode()
	if id != 5 {
		t.Fatalf("fresh node reused ID %d", id)
	}
	if g.Has(2) {
		t.Fatal("removed node still live")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := NewWithNodes(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	c.RemoveNode(0)
	if g.NumNodes() != 3 || g.NumEdges() != 1 {
		t.Fatal("mutating clone affected original")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSampleNodesProperties(t *testing.T) {
	r := rng.New(1)
	g := RandomGNM(r, 100, 250)
	f := func(mRaw uint8) bool {
		m := int(mRaw) % 120 // sometimes exceeds n: should clamp
		s := g.SampleNodes(r, m)
		want := m
		if want > 100 {
			want = 100
		}
		if len(s) != want {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if !g.Has(v) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAvgDegree(t *testing.T) {
	g := Cycle(10)
	if g.AvgDegree() != 2 {
		t.Fatalf("cycle avg degree = %v", g.AvgDegree())
	}
	if Empty(5).AvgDegree() != 0 {
		t.Fatal("empty graph degree")
	}
	if New().AvgDegree() != 0 {
		t.Fatal("zero-node graph degree")
	}
}

func TestGeneratorsInvariants(t *testing.T) {
	r := rng.New(2)
	cases := []struct {
		name string
		g    *Graph
	}{
		{"gnm", RandomGNM(r, 50, 100)},
		{"gnm-dense", RandomGNM(r, 20, 150)},
		{"cliques", CliqueUnion(30, 4)},
		{"ex1", CliquePlusIsolated(16, 4)},
		{"cliques+iso", CliquesPlusIsolated(3, 5, 7)},
		{"complete", Complete(12)},
		{"cycle", Cycle(9)},
		{"path", Path(9)},
		{"star", Star(9)},
		{"grid", Grid2D(6, 7)},
		{"rgg", RandomGeometric(r, 100, 0.15)},
		{"ws", WattsStrogatz(r, 40, 3, 0.2)},
		{"ba", BarabasiAlbert(r, 60, 3)},
	}
	for _, c := range cases {
		if err := c.g.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestRandomGNMExactEdges(t *testing.T) {
	r := rng.New(3)
	for _, tc := range []struct{ n, m int }{{10, 0}, {10, 45}, {50, 200}, {20, 100}} {
		g := RandomGNM(r, tc.n, tc.m)
		if g.NumEdges() != tc.m {
			t.Errorf("GNM(%d,%d) has %d edges", tc.n, tc.m, g.NumEdges())
		}
		if g.NumNodes() != tc.n {
			t.Errorf("GNM(%d,%d) has %d nodes", tc.n, tc.m, g.NumNodes())
		}
	}
}

func TestRandomGNMTooManyEdgesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RandomGNM(rng.New(1), 5, 11)
}

func TestRandomWithAvgDegree(t *testing.T) {
	r := rng.New(4)
	g := RandomWithAvgDegree(r, 2000, 16)
	if d := g.AvgDegree(); d < 15.99 || d > 16.01 {
		t.Fatalf("avg degree = %v, want 16", d)
	}
}

func TestCliqueUnionStructure(t *testing.T) {
	g := CliqueUnion(20, 4) // 4 cliques of size 5
	if g.NumNodes() != 20 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 4*10 {
		t.Fatalf("edges = %d, want 40", g.NumEdges())
	}
	for _, v := range g.Nodes() {
		if g.Degree(v) != 4 {
			t.Fatalf("node %d degree %d, want 4", v, g.Degree(v))
		}
	}
	// Nodes in different cliques must not be adjacent.
	if g.HasEdge(0, 5) || g.HasEdge(4, 5) {
		t.Fatal("edge crosses clique boundary")
	}
	if !g.HasEdge(0, 4) {
		t.Fatal("missing intra-clique edge")
	}
}

func TestCliqueUnionBadParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CliqueUnion(10, 3) // 4 does not divide 10
}

func TestGrid2DStructure(t *testing.T) {
	g := Grid2D(3, 4)
	if g.NumNodes() != 12 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Edges: 3*3 horizontal + 2*4 vertical = 17.
	if g.NumEdges() != 17 {
		t.Fatalf("edges = %d, want 17", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 4) || g.HasEdge(3, 4) {
		t.Fatal("grid wiring wrong")
	}
}

func TestRandomGeometricEdges(t *testing.T) {
	r := rng.New(5)
	g := RandomGeometric(r, 200, 0.0001)
	if g.NumEdges() != 0 {
		t.Fatalf("tiny radius should give no edges, got %d", g.NumEdges())
	}
	g2 := RandomGeometric(r, 50, 1.5)
	if g2.NumEdges() != 50*49/2 {
		t.Fatalf("radius > diameter should give complete graph, got %d edges", g2.NumEdges())
	}
}

func TestBarabasiAlbertDegrees(t *testing.T) {
	r := rng.New(6)
	g := BarabasiAlbert(r, 100, 2)
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Every node added after the seed has degree >= k.
	for v := 3; v < 100; v++ {
		if g.Degree(v) < 2 {
			t.Fatalf("node %d degree %d < k", v, g.Degree(v))
		}
	}
}

func TestSortedNeighbors(t *testing.T) {
	g := NewWithNodes(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	ns := g.SortedNeighbors(2)
	if !sort.IntsAreSorted(ns) || len(ns) != 3 {
		t.Fatalf("SortedNeighbors = %v", ns)
	}
}
