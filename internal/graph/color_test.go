package graph

import (
	"testing"

	"repro/internal/rng"
)

// colorTestGraphs is the generator zoo the coloring properties are
// checked over: regular structure, random structure, cliques, and the
// degenerate shapes.
func colorTestGraphs() map[string]*Graph {
	r := rng.New(42)
	return map[string]*Graph{
		"empty":     Empty(0),
		"single":    Empty(1),
		"edgeless":  Empty(64),
		"path":      Path(33),
		"cycle-odd": Cycle(17),
		"star":      Star(40),
		"grid":      Grid2D(12, 9),
		"complete":  Complete(9),
		"cliques":   CliquesPlusIsolated(4, 6, 10),
		"random":    RandomWithAvgDegree(r, 400, 8.0),
		"geometric": RandomGeometric(r, 300, 0.1),
		"ws":        WattsStrogatz(r, 256, 6, 0.2),
		"ba":        BarabasiAlbert(r, 256, 4),
		"large":     RandomWithAvgDegree(rng.New(3), 6000, 12.0),
	}
}

// classIndependence asserts every color class is an independent set of
// the source graph — the property colored execution leans on: tasks in
// one class share no conflict edge, so they can run without locks.
func classIndependence(t *testing.T, g *Graph, c *CSR, colors []int32, numColors int) {
	t.Helper()
	classes := make([][]int, numColors)
	for v := 0; v < c.NumNodes(); v++ {
		col := colors[v]
		if col < 0 || int(col) >= numColors {
			t.Fatalf("node %d has out-of-range color %d (numColors=%d)", v, col, numColors)
		}
		classes[col] = append(classes[col], c.ID(v))
	}
	for col, class := range classes {
		if !IsIndependentSet(g, class) {
			t.Fatalf("color class %d is not an independent set (%d members)", col, len(class))
		}
	}
}

func TestColorCSRProper(t *testing.T) {
	for name, g := range colorTestGraphs() {
		c := NewCSR(g)
		colors, numColors := ColorCSR(c, nil)
		if !IsProperColoring(c, colors) && c.NumNodes() > 0 {
			t.Fatalf("%s: coloring not proper", name)
		}
		if maxDeg := MaxDegreeCSR(c); numColors > maxDeg+1 && c.NumNodes() > 0 {
			t.Fatalf("%s: %d colors exceeds maxDeg+1=%d", name, numColors, maxDeg+1)
		}
		classIndependence(t, g, c, colors, numColors)
	}
}

func TestColorCSRCompleteUsesNColors(t *testing.T) {
	c := NewCSR(Complete(7))
	_, numColors := ColorCSR(c, nil)
	if numColors != 7 {
		t.Fatalf("K7 colored with %d colors, want 7", numColors)
	}
}

func TestColorCSRSerialDeterministic(t *testing.T) {
	g := RandomWithAvgDegree(rng.New(9), 500, 10.0)
	c := NewCSR(g)
	a, na := ColorCSR(c, nil)
	b, nb := ColorCSR(c, nil)
	if na != nb {
		t.Fatalf("serial color counts differ: %d vs %d", na, nb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("serial coloring not deterministic at node %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestColorCSRReusesBuffer(t *testing.T) {
	g := Grid2D(8, 8)
	c := NewCSR(g)
	buf := make([]int32, 0, 128)
	colors, _ := ColorCSR(c, buf)
	if &colors[:cap(buf)][0] != &buf[:cap(buf)][0] {
		t.Fatal("ColorCSR allocated a new buffer despite sufficient capacity")
	}
}

func TestNewCSRFromEdges(t *testing.T) {
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 4} /* self-loop dropped */}
	c := NewCSRFromEdges(6, edges)
	if c.NumNodes() != 6 {
		t.Fatalf("NumNodes=%d, want 6", c.NumNodes())
	}
	if c.NumEdges() != 4 {
		t.Fatalf("NumEdges=%d, want 4 (self-loop dropped)", c.NumEdges())
	}
	wantDeg := []int{2, 2, 2, 1, 1, 0}
	for v, want := range wantDeg {
		if got := c.Degree(v); got != want {
			t.Fatalf("deg(%d)=%d, want %d", v, got, want)
		}
	}
	// Adjacency round-trips: every listed edge appears in both rows.
	has := func(v int, u int32) bool {
		for _, w := range c.Neighbors(v) {
			if w == u {
				return true
			}
		}
		return false
	}
	for _, e := range edges[:4] {
		if !has(int(e[0]), e[1]) || !has(int(e[1]), e[0]) {
			t.Fatalf("edge %v missing from CSR adjacency", e)
		}
	}
	colors, numColors := ColorCSR(c, nil)
	if !IsProperColoring(c, colors) {
		t.Fatal("coloring of edge-list CSR not proper")
	}
	if numColors != 3 { // the triangle forces exactly 3
		t.Fatalf("numColors=%d, want 3", numColors)
	}
}

// FuzzColorCSR mirrors FuzzCSRGreedyMIS: drive a graph through an
// arbitrary mutation script, snapshot to CSR, and assert ColorCSR
// produces a proper coloring within the maxDegree+1 bound, with every
// class independent.
func FuzzColorCSR(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint64(7), []byte{1, 0, 1, 1, 1, 2, 2, 0, 0, 5, 3, 1})
	f.Add(uint64(11), []byte{1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		g := NewWithNodes(3)
		for i := 0; i+1 < len(script) && i < 120; i += 2 {
			op, arg := script[i], int(script[i+1])
			nodes := g.Nodes()
			switch op % 3 {
			case 0:
				g.AddNode()
			case 1:
				if len(nodes) >= 2 {
					u := nodes[arg%len(nodes)]
					v := nodes[(arg+1)%len(nodes)]
					if u != v && !g.HasEdge(u, v) {
						g.AddEdge(u, v)
					}
				}
			case 2:
				if len(nodes) > 0 {
					g.RemoveNode(nodes[arg%len(nodes)])
				}
			}
		}
		c := NewCSR(g)
		colors, numColors := ColorCSR(c, nil)
		if c.NumNodes() == 0 {
			if numColors != 0 {
				t.Fatalf("empty snapshot used %d colors", numColors)
			}
			return
		}
		if !IsProperColoring(c, colors) {
			t.Fatal("coloring not proper")
		}
		if maxDeg := MaxDegreeCSR(c); numColors > maxDeg+1 {
			t.Fatalf("%d colors exceeds maxDeg+1=%d", numColors, maxDeg+1)
		}
		classIndependence(t, g, c, colors, numColors)
	})
}
