package boruvka

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/control"
	"repro/internal/rng"
	"repro/internal/speculation"
)

// drainMSF runs s to completion on par participants: m tasks a round,
// or under the hybrid controller at ρ = 0.25 when m is 0.
func drainMSF(t testing.TB, s *SpeculativeMSF, par, m int) {
	t.Helper()
	e := s.Executor()
	e.MaxParallel = par
	defer e.Close()
	if m == 0 {
		speculation.RunAdaptive(e, control.NewHybrid(control.DefaultHybridConfig(0.25)), 1_000_000)
	}
	for rounds := 0; m > 0 && e.Pending() > 0 && rounds < 1_000_000; rounds++ {
		e.Round(m)
	}
	if e.Pending() > 0 {
		t.Fatal("did not drain")
	}
}

// checkForest verifies res against Kruskal and, since (W, ID) orders the
// edges totally, checks that it is Kruskal's very forest.
func checkForest(t testing.TB, g *WGraph, res Result) {
	t.Helper()
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	ids := func(es []Edge) []int {
		out := make([]int, len(es))
		for i, e := range es {
			out[i] = e.ID
		}
		slices.Sort(out)
		return out
	}
	if got, want := ids(res.Edges), ids(Kruskal(g).Edges); !slices.Equal(got, want) {
		t.Fatalf("forest edge IDs %v, Kruskal %v", got, want)
	}
}

// popped counts the half-edges a drained s popped off its heaps: every
// half-edge starts in a heap, and only a pop takes one out.
func popped(s *SpeculativeMSF) int {
	left := 0
	var walk func(h int32)
	walk = func(h int32) {
		for ; h >= 0; h = s.heap[h].next {
			left++
			walk(s.heap[h].child)
		}
	}
	for _, h := range s.top {
		walk(h)
	}
	return len(s.heap) - left
}

// testGraphs covers what NewRandomConnected never draws: several
// components, isolated vertices, parallel edges, self-loops and equal
// weights that only the ID orders.
func testGraphs() map[string]*WGraph {
	r := rng.New(9)
	out := map[string]*WGraph{"random": NewRandomConnected(r, 300, 900)}
	// Four random components on disjoint vertex ranges, with isolated
	// vertices between them.
	g := &WGraph{N: 260}
	for c := 0; c < 4; c++ {
		base := c * 60
		h := NewRandomConnected(r, 50, 80)
		for _, e := range h.Edges {
			g.Edges = append(g.Edges, Edge{U: base + e.U, V: base + e.V, W: e.W, ID: len(g.Edges)})
		}
	}
	out["disconnected"] = g
	// Weights from {0, 1, 2}: ties everywhere, parallel edges and
	// self-loops among them.
	g = &WGraph{N: 80}
	for i := 0; i < 400; i++ {
		u, v := r.Intn(g.N), r.Intn(g.N)
		if i%7 == 0 {
			v = u
		}
		g.Edges = append(g.Edges, Edge{U: u, V: v, W: float64(r.Intn(3)), ID: len(g.Edges)})
		if i%5 == 0 {
			g.Edges = append(g.Edges, Edge{U: v, V: u, W: float64(r.Intn(3)), ID: len(g.Edges)})
		}
	}
	out["ties"] = g
	out["isolated"] = &WGraph{N: 5}
	out["loops"] = &WGraph{N: 3, Edges: []Edge{{U: 1, V: 1, W: 0, ID: 0}, {U: 0, V: 2, W: 1, ID: 1}, {U: 2, V: 2, W: 0, ID: 2}}}
	return out
}

func TestSpeculativeMSFGraphs(t *testing.T) {
	for name, g := range testGraphs() {
		for _, par := range []int{1, 4} {
			for _, m := range []int{1, 16, 256, 0} {
				t.Run(fmt.Sprintf("%s/P=%d/m=%d", name, par, m), func(t *testing.T) {
					r := rng.New(uint64(par*1000 + m))
					s := NewSpeculativeMSF(g, func(n int) int { return r.Intn(n) })
					drainMSF(t, s, par, m)
					checkForest(t, g, s.Result())
				})
			}
		}
	}
}

// TestSpeculativePops pins the pops of apps_mix-sized drains, where the
// trajectory is a function of the seed. A task pops only internal edges
// cheaper than its minimum outgoing edge — a task that loses the round's
// walk pops them too, since only its own root's heap holds them — and a
// finished component's task pops nothing, so a drain pops fewer
// half-edges than the graph has edges.
func TestSpeculativePops(t *testing.T) {
	want := map[uint64]int{1: 8256, 2: 8384, 3: 7800}
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		g := NewRandomConnected(r, 6000, 18000)
		s := NewSpeculativeMSF(g, func(n int) int { return r.Intn(n) })
		drainMSF(t, s, 1, 0)
		checkForest(t, g, s.Result())
		got := popped(s)
		if got != want[seed] || got >= len(g.Edges) {
			t.Errorf("seed %d: %d pops over %d edges, want %d", seed, got, len(g.Edges), want[seed])
		}
	}
}

// FuzzSpeculativeMSF decodes a graph of up to 64 vertices — byte 0 the
// vertex count, byte 1 the round size, then (u, v, weight) byte triples
// with weights from {0, 1, 2, 3} so ties are common, self-loops and
// parallel edges kept — and checks the speculative forest at one and two
// participants against Kruskal's.
func FuzzSpeculativeMSF(f *testing.F) {
	f.Add([]byte{4, 2, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 0, 1})
	f.Add([]byte{6, 1, 0, 0, 0, 0, 1, 2, 1, 0, 2, 3, 4, 2})
	f.Add([]byte{63, 16, 0, 9, 3, 9, 8, 1, 8, 9, 1, 9, 62, 0, 0, 7, 2, 7, 9, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := &WGraph{N: 1 + int(data[0])%64}
		m := 1 + int(data[1])%32
		for b := data[2:]; len(b) >= 3; b = b[3:] {
			g.Edges = append(g.Edges, Edge{U: int(b[0]) % g.N, V: int(b[1]) % g.N,
				W: float64(b[2] % 4), ID: len(g.Edges)})
		}
		for _, par := range []int{1, 2} {
			r := rng.New(uint64(len(data)))
			s := NewSpeculativeMSF(g, func(n int) int { return r.Intn(n) })
			drainMSF(t, s, par, m)
			checkForest(t, g, s.Result())
		}
	})
}
