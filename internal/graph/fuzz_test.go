package graph

import (
	"testing"

	"repro/internal/rng"
)

// FuzzGraphMutations drives the graph through an arbitrary byte-coded
// mutation script and asserts the structural invariants after every
// operation. (The seed corpus runs on every `go test`; `go test -fuzz`
// explores further.)
func FuzzGraphMutations(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		g := NewWithNodes(4)
		for i := 0; i+1 < len(script) && i < 200; i += 2 {
			op, arg := script[i], int(script[i+1])
			nodes := g.Nodes()
			switch op % 4 {
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
			case 3:
				if len(nodes) >= 2 {
					u := nodes[arg%len(nodes)]
					v := nodes[(arg+1)%len(nodes)]
					if u != v {
						g.RemoveEdge(u, v)
					}
				}
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%d): %v", i/2, op%4, err)
			}
		}
		// Greedy MIS over the survivors is always independent & maximal.
		if g.NumNodes() > 0 {
			r := rng.New(uint64(len(script)))
			order := g.SampleNodes(r, g.NumNodes())
			sel, rej := GreedyMIS(g, order)
			if !IsMaximalIndependentSet(g, sel) {
				t.Fatal("greedy MIS not maximal")
			}
			if len(sel)+len(rej) != g.NumNodes() {
				t.Fatal("partition broken")
			}
		}
	})
}

// FuzzCSRGreedyMIS drives a graph through an arbitrary mutation script,
// snapshots it to CSR, and asserts the CSR greedy-MIS kernel agrees with
// the map-based GreedyMIS node-for-node on a random commit order.
func FuzzCSRGreedyMIS(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint64(7), []byte{1, 0, 1, 1, 1, 2, 2, 0, 0, 5, 3, 1})
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
		if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
			t.Fatalf("snapshot shape (%d,%d) vs graph (%d,%d)",
				c.NumNodes(), c.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		if g.NumNodes() == 0 {
			return
		}
		r := rng.New(seed)
		m := r.Intn(g.NumNodes() + 1)
		order := g.SampleNodes(r, m)
		wantSel, _ := GreedyMIS(g, order)
		csrOrder := make([]int32, len(order))
		for i, id := range order {
			ci := c.IndexOf(id)
			if ci < 0 {
				t.Fatalf("live node %d missing from remap", id)
			}
			csrOrder[i] = int32(ci)
		}
		var s CSRScratch
		sel, _ := s.Partition(c, csrOrder, nil, nil)
		if len(sel) != len(wantSel) {
			t.Fatalf("CSR selected %d, map-based %d", len(sel), len(wantSel))
		}
		for i, v := range sel {
			if c.ID(int(v)) != wantSel[i] {
				t.Fatalf("selected[%d]: CSR %d, map-based %d", i, c.ID(int(v)), wantSel[i])
			}
		}
		if got := s.MISSize(c, csrOrder); got != len(wantSel) {
			t.Fatalf("MISSize %d, want %d", got, len(wantSel))
		}
	})
}

// FuzzPermPrefix checks the sampling primitive against arbitrary
// (n, m, seed) combinations.
func FuzzPermPrefix(f *testing.F) {
	f.Add(uint64(1), uint16(10), uint16(3))
	f.Add(uint64(99), uint16(1), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw uint16) {
		n := int(nRaw%2000) + 1
		m := int(mRaw) % (n + 1)
		r := rng.New(seed)
		p := r.PermPrefix(n, m)
		if len(p) != m {
			t.Fatalf("length %d, want %d", len(p), m)
		}
		seen := make(map[int]bool, m)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("invalid sample %v", p)
			}
			seen[v] = true
		}
	})
}
