package graph

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

// TestSeededGeneratorsGolden pins the seeded generators to edge lists
// recorded under testdata/, so every seeded experiment in EXPERIMENTS.md
// keeps seeing the graphs it was run on. The files for RandomGNM (both
// branches), RandomWithAvgDegree, WattsStrogatz and RandomGeometric
// were written from the map-backed Graph (the commit before the
// flat-array rewrite) in the format edgeList prints. BarabasiAlbert
// iterated over a Go map then and had no reproducible output; its file
// records the draw-order attachment that replaced it.
func TestSeededGeneratorsGolden(t *testing.T) {
	cases := []struct {
		file string
		g    *Graph
	}{
		{"gnm_sparse_seed1", RandomGNM(rng.New(1), 60, 150)},
		{"gnm_dense_seed2", RandomGNM(rng.New(2), 24, 200)},
		{"watts_seed4", WattsStrogatz(rng.New(4), 60, 3, 0.2)},
		{"geometric_seed5", RandomGeometric(rng.New(5), 80, 0.15)},
		{"avgdegree_seed6", RandomWithAvgDegree(rng.New(6), 100, 8)},
		{"barabasi_seed7", BarabasiAlbert(rng.New(7), 60, 3)},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", c.file+".edges"))
		if err != nil {
			t.Fatal(err)
		}
		if edgeList(c.g) != string(want) {
			t.Errorf("%s: generated edge list differs from testdata/%s.edges", c.file, c.file)
		}
		if err := c.g.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", c.file, err)
		}
	}
}

// edgeList prints g as the header "# nodes <n>", one "node v" line per
// live node and one "u v" line per edge (u < v), each part sorted.
func edgeList(g *Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# nodes %d\n", g.NumNodes())
	ids := g.Nodes()
	sort.Ints(ids)
	for _, v := range ids {
		fmt.Fprintf(&b, "node %d\n", v)
	}
	for _, u := range ids {
		for _, v := range g.SortedNeighbors(u) {
			if u < v {
				fmt.Fprintf(&b, "%d %d\n", u, v)
			}
		}
	}
	return b.String()
}

// TestDenseBuildsStayLinear: generators that cannot emit a duplicate
// insert without scanning, so a dense build costs O(edges) where AddEdge
// would make it O(edges·degree). The cost is counted in arcs the
// duplicate check compares: none for the generators, n(n−1)(n−2)/6 for
// K_n built through AddEdge. The absolute time bounds are loose enough
// for -race on a slow box.
func TestDenseBuildsStayLinear(t *testing.T) {
	start := time.Now()
	k := Complete(1500)
	u := CliqueUnion(3000, 99)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Complete(1500) + CliqueUnion(3000, 99) took %v", elapsed)
	}
	if k.NumEdges() != 1500*1499/2 || u.NumEdges() != 30*100*99/2 {
		t.Fatalf("edges %d / %d", k.NumEdges(), u.NumEdges())
	}
	if k.probes != 0 || u.probes != 0 {
		t.Errorf("Complete compared %d arcs, CliqueUnion %d: a generator is not on the no-scan insert", k.probes, u.probes)
	}
	// Draining a clique is O(edges) too: removal follows the back indices.
	start = time.Now()
	for k.NumNodes() > 0 {
		k.RemoveNode(k.NodeAt(0))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("draining K_1500 took %v", elapsed)
	}

	// The count is live: building the same clique through AddEdge, the
	// insert of {i, j} compares the shorter list, node j's i arcs.
	const n = 300
	g := NewWithNodes(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	if want := n * (n - 1) * (n - 2) / 6; g.probes != want {
		t.Errorf("the duplicate-checking build of K_%d compared %d arcs, want %d", n, g.probes, want)
	}
}
