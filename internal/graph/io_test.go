package graph

import (
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestEdgeListRoundTrip(t *testing.T) {
	r := rng.New(1)
	g := RandomGNM(r, 40, 100)
	g.RemoveNode(7) // non-contiguous IDs + possible isolated survivors
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d vs %d/%d",
			back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, u := range g.Nodes() {
		if !back.Has(u) {
			t.Fatalf("node %d lost", u)
		}
		for _, v := range g.Neighbors(u, nil) {
			if !back.HasEdge(u, v) {
				t.Fatalf("edge {%d,%d} lost", u, v)
			}
		}
	}
	if err := back.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteEdgeListDeterministic(t *testing.T) {
	r := rng.New(2)
	g := RandomGNM(r, 20, 50)
	var a, b strings.Builder
	if err := g.WriteEdgeList(&a); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("output not deterministic")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"1 2 3",  // too many fields
		"a b",    // non-numeric
		"node x", // bad node id
		"5 5",    // self-loop
		// IDs index the graph's arrays: out-of-range ones are refused,
		// not allowed to panic or to allocate gigabytes.
		"node -5",
		"-1 2",
		"2 -1",
		"node 4000000000",
		"0 1048576", // MaxEdgeListID + 1
		"node 99999999999999999999",
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
	// Errors name the offending line.
	_, err := ReadEdgeList(strings.NewReader("0 1\n# c\nnode -5\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %v does not name line 3", err)
	}
	if _, err := ReadEdgeList(strings.NewReader("node 1048575")); err != nil {
		t.Errorf("MaxEdgeListID itself refused: %v", err)
	}
	// Comments, blanks, and duplicate edges are tolerated.
	g, err := ReadEdgeList(strings.NewReader("# header\n\n1 2\n2 1\nnode 9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 1 {
		t.Fatalf("parsed %d/%d", g.NumNodes(), g.NumEdges())
	}
}
