package graph

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
)

// refGraph is the obviously-correct model the flat-array Graph is checked
// against: a map of neighbor sets, the representation Graph itself used
// before it moved to slices.
type refGraph struct {
	adj    map[int]map[int]struct{}
	nextID int
}

func newRef() *refGraph { return &refGraph{adj: map[int]map[int]struct{}{}} }

func (r *refGraph) addNode() int {
	id := r.nextID
	r.nextID++
	r.adj[id] = map[int]struct{}{}
	return id
}

func (r *refGraph) addEdge(u, v int) bool {
	if _, dup := r.adj[u][v]; dup {
		return false
	}
	r.adj[u][v] = struct{}{}
	r.adj[v][u] = struct{}{}
	return true
}

func (r *refGraph) removeEdge(u, v int) bool {
	if _, ok := r.adj[u][v]; !ok {
		return false
	}
	delete(r.adj[u], v)
	delete(r.adj[v], u)
	return true
}

func (r *refGraph) removeNode(id int) bool {
	nbrs, ok := r.adj[id]
	if !ok {
		return false
	}
	for v := range nbrs {
		delete(r.adj[v], id)
	}
	delete(r.adj, id)
	return true
}

func (r *refGraph) clone() *refGraph {
	c := &refGraph{adj: make(map[int]map[int]struct{}, len(r.adj)), nextID: r.nextID}
	for u, nbrs := range r.adj {
		c.adj[u] = make(map[int]struct{}, len(nbrs))
		for v := range nbrs {
			c.adj[u][v] = struct{}{}
		}
	}
	return c
}

func (r *refGraph) sortedNeighbors(id int) []int {
	ns := make([]int, 0, len(r.adj[id]))
	for v := range r.adj[id] {
		ns = append(ns, v)
	}
	sort.Ints(ns)
	return ns
}

// agree compares every observable of g with the reference, probing dead
// and never-issued IDs too (the slice storage must answer for them the
// way the maps did: absent, degree 0, no edges).
func agree(g *Graph, r *refGraph) error {
	if err := g.CheckInvariants(); err != nil {
		return err
	}
	edges := 0
	for _, nbrs := range r.adj {
		edges += len(nbrs)
	}
	if g.NumNodes() != len(r.adj) || g.NumEdges() != edges/2 {
		return fmt.Errorf("size %d/%d, reference %d/%d", g.NumNodes(), g.NumEdges(), len(r.adj), edges/2)
	}
	for id := -1; id <= r.nextID+1; id++ {
		_, live := r.adj[id]
		if g.Has(id) != live {
			return fmt.Errorf("Has(%d) = %v, reference %v", id, g.Has(id), live)
		}
		if g.Degree(id) != len(r.adj[id]) {
			return fmt.Errorf("Degree(%d) = %d, reference %d", id, g.Degree(id), len(r.adj[id]))
		}
		got, want := g.SortedNeighbors(id), r.sortedNeighbors(id)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("SortedNeighbors(%d) = %v, reference %v", id, got, want)
		}
		for other := -1; other <= r.nextID+1; other++ {
			_, e := r.adj[id][other]
			if g.HasEdge(id, other) != e {
				return fmt.Errorf("HasEdge(%d,%d) = %v, reference %v", id, other, g.HasEdge(id, other), e)
			}
		}
	}
	return nil
}

// TestGraphMatchesMapReference runs seeded random mutation sequences —
// including regrowth after removals and Clone — against
// the map-of-sets reference and compares every observable after every
// step.
func TestGraphMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		g, ref := New(), newRef()
		pick := func() int { // any ID ever issued, live or not, plus one beyond
			return r.Intn(ref.nextID + 1)
		}
		for step := 0; step < 400; step++ {
			op := r.Intn(10)
			switch {
			case op < 2 || ref.nextID < 2:
				if got, want := g.AddNode(), ref.addNode(); got != want {
					t.Fatalf("seed %d step %d: AddNode = %d, reference %d", seed, step, got, want)
				}
			case op < 6:
				u, v := pick(), pick()
				if _, ok := ref.adj[u]; !ok || u == v {
					continue
				}
				if _, ok := ref.adj[v]; !ok {
					continue
				}
				if got, want := g.AddEdge(u, v), ref.addEdge(u, v); got != want {
					t.Fatalf("seed %d step %d: AddEdge(%d,%d) = %v, reference %v", seed, step, u, v, got, want)
				}
			case op < 7:
				u, v := pick(), pick()
				if got, want := g.RemoveEdge(u, v), ref.removeEdge(u, v); got != want {
					t.Fatalf("seed %d step %d: RemoveEdge(%d,%d) = %v, reference %v", seed, step, u, v, got, want)
				}
			case op < 9:
				v := pick()
				if got, want := g.RemoveNode(v), ref.removeNode(v); got != want {
					t.Fatalf("seed %d step %d: RemoveNode(%d) = %v, reference %v", seed, step, v, got, want)
				}
			default:
				// Continue on a copy; the original must be unaffected by
				// what happens to it, which the next steps exercise.
				g, ref = g.Clone(), ref.clone()
			}
			if err := agree(g, ref); err != nil {
				t.Fatalf("seed %d step %d (op %d): %v", seed, step, op, err)
			}
		}
	}
}

// TestCloneSharesNoStorage: Clone packs its lists into one backing array,
// so growing one list must not run into the next, in either graph.
func TestCloneSharesNoStorage(t *testing.T) {
	g := Path(4)
	c := g.Clone()
	c.AddEdge(0, 2)
	c.AddEdge(0, 3)
	g.RemoveNode(1)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(c.SortedNeighbors(1)); got != "[0 2]" {
		t.Fatalf("clone's node 1 has neighbors %s after growing node 0", got)
	}
	if g.NumEdges() != 1 || c.NumEdges() != 5 {
		t.Fatalf("edges %d/%d, want 1/5", g.NumEdges(), c.NumEdges())
	}
}
