package speculation

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// declaredCases are the conflict graphs the declare tests run on: sparse and dense random graphs, a star (one key adjacent to all),
// and a graph that is mostly isolated nodes.
var declaredCases = []struct {
	name  string
	build func() *graph.Graph
}{
	{"sparse", func() *graph.Graph { return graph.RandomWithAvgDegree(rng.New(5), 300, 3) }},
	{"dense", func() *graph.Graph { return graph.RandomWithAvgDegree(rng.New(6), 120, 40) }},
	{"star", func() *graph.Graph { return graph.Star(50) }},
	{"isolated", func() *graph.Graph { return graph.CliquesPlusIsolated(3, 4, 40) }},
}

// footprintedTasks returns one Footprinted task per node of g in the two
// shapes the registry has: a stable-style chain that commits twice, and
// the cc workload's commit-once node task.
func footprintedTasks(g *graph.Graph, cc bool) []Task {
	var tasks []Task
	if cc {
		wl := NewGraphWorkload(g)
		for _, v := range g.Nodes() {
			tasks = append(tasks, wl.TaskFor(v))
		}
		return tasks
	}
	fps := GraphFootprints(g)
	for _, v := range g.Nodes() {
		t := &stableChainTask{key: int64(v), items: fps[v]}
		t.left.Store(2)
		t.commitFn = func() { t.left.Add(-1) }
		tasks = append(tasks, t)
	}
	return tasks
}

// TestDeclaredGraphEquivalence checks the declared ConflictGraph against
// a brute-force one built here from the same declarations: the keys in
// order, each key's footprint as its sorted distinct item Seqs, and an
// edge between two keys iff their footprints share an item, found by
// comparing every pair.
func TestDeclaredGraphEquivalence(t *testing.T) {
	for _, tc := range declaredCases {
		for _, cc := range []bool{false, true} {
			tasks := footprintedTasks(tc.build(), cc)
			e := NewExecutor(nil)
			for _, task := range tasks {
				e.Add(task)
			}
			var cs coloredState
			declared := e.declare(&cs)
			if declared == nil {
				t.Fatalf("%s cc=%v: declare refused", tc.name, cc)
			}

			type vertex struct {
				key  int64
				seqs []int64
			}
			want := make([]vertex, len(tasks))
			for i, task := range tasks {
				ft := task.(Footprinted)
				want[i].key = ft.ConflictKey()
				for _, it := range ft.Footprint() {
					want[i].seqs = append(want[i].seqs, it.Seq)
				}
				slices.Sort(want[i].seqs)
				want[i].seqs = slices.Compact(want[i].seqs)
			}
			slices.SortFunc(want, func(a, b vertex) int { return cmp.Compare(a.key, b.key) })
			wantOff, wantSeqs := []int32{0}, []int64{}
			for _, v := range want {
				wantSeqs = append(wantSeqs, v.seqs...)
				wantOff = append(wantOff, int32(len(wantSeqs)))
			}
			for i, v := range want {
				if declared.keys[i] != v.key {
					t.Fatalf("%s cc=%v: declared key %d at index %d, want %d", tc.name, cc, declared.keys[i], i, v.key)
				}
			}
			if len(declared.keys) != len(want) || !slices.Equal(declared.fpOff, wantOff) || !slices.Equal(declared.fpSeqs, wantSeqs) {
				t.Fatalf("%s cc=%v: declared footprints differ from the declarations", tc.name, cc)
			}
			for i := range want {
				var nb []int32
				for j := range want {
					if j != i && slices.ContainsFunc(want[i].seqs, func(s int64) bool {
						_, found := slices.BinarySearch(want[j].seqs, s)
						return found
					}) {
						nb = append(nb, int32(j))
					}
				}
				got := slices.Clone(declared.CSR().Neighbors(i))
				slices.Sort(got)
				if !slices.Equal(got, nb) {
					t.Fatalf("%s cc=%v: key %d declared neighbors %v, pairwise overlaps %v", tc.name, cc, want[i].key, got, nb)
				}
			}
		}
	}
}

// TestDeclaredColoringClassesDisjoint is Fig. 1's property on the
// declared coloring: the tasks of one color class share no item, which
// is what lets a class run without locks.
func TestDeclaredColoringClassesDisjoint(t *testing.T) {
	for _, tc := range declaredCases {
		tasks := footprintedTasks(tc.build(), true)
		e := NewExecutor(nil)
		for _, task := range tasks {
			e.Add(task)
		}
		var cs coloredState
		cg := e.declare(&cs)
		colors, numColors := graph.ColorCSR(cg.CSR(), nil, 2)
		holder := make([]map[*Item]int64, numColors)
		for i := range holder {
			holder[i] = make(map[*Item]int64)
		}
		for _, task := range tasks {
			ft := task.(Footprinted)
			class := holder[colors[cg.KeyIndex(ft.ConflictKey())]]
			for _, it := range ft.Footprint() {
				if other, taken := class[it]; taken {
					t.Fatalf("%s: keys %d and %d share item %d in one color class", tc.name, other, ft.ConflictKey(), it.Seq)
				}
				class[it] = ft.ConflictKey()
			}
		}
	}
}

// TestConflictGraphBuildDeduplicates: a footprint that names an item
// twice, two keys that share two items, and negative Seqs all come out
// as one sorted footprint entry and one edge each.
func TestConflictGraphBuildDeduplicates(t *testing.T) {
	a, b, c := NewItem(-3), NewItem(1<<40), NewItem(9)
	mk := func(key int64, items ...*Item) Task {
		return &stableChainTask{key: key, items: items}
	}
	e := NewExecutor(nil)
	e.Add(mk(20, b, a, b))
	e.Add(mk(10, a, b, c))
	e.Add(mk(30, c))
	var cs coloredState
	cg := e.declare(&cs)
	if cg == nil || !slices.Equal(cg.keys, []int64{10, 20, 30}) {
		t.Fatalf("declare = %+v", cg)
	}
	if want := []int64{-3, 9, 1 << 40, -3, 1 << 40, 9}; !slices.Equal(cg.fpSeqs, want) || !slices.Equal(cg.fpOff, []int32{0, 3, 5, 6}) {
		t.Fatalf("footprints %v at %v, want %v", cg.fpSeqs, cg.fpOff, want)
	}
	if cg.CSR().NumEdges() != 2 || !slices.Equal(cg.CSR().Neighbors(0), []int32{1, 2}) {
		t.Fatalf("adjacency of key 10: %v (%d edges), want keys 20 and 30 once each", cg.CSR().Neighbors(0), cg.CSR().NumEdges())
	}
	if !cg.covers(1, []*Item{a, b}) || cg.covers(1, []*Item{c}) || cg.KeyIndex(25) != -1 {
		t.Fatal("covers/KeyIndex disagree with the declarations")
	}
}

// TestDeclareAllocationsIndependentOfSize: the builder sorts and
// scatters through a fixed set of buffers — no map entry, slice or node
// per item or per edge — so a graph sixteen times the size allocates the
// same number of objects.
func TestDeclareAllocationsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		e := ccExecutor(2, n, 8)
		defer e.Close()
		var cs coloredState
		e.declare(&cs) // size the drain and scratch buffers
		return testing.AllocsPerRun(5, func() {
			if e.declare(&cs) == nil {
				t.Fatal("declare refused")
			}
		})
	}
	if small, large := allocs(250), allocs(4000); small != large || large > 32 {
		t.Fatalf("declare allocated %v objects at n=250 and %v at n=4000", small, large)
	}
}
