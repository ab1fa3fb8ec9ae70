package speculation

import (
	"context"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// declaredCases are the conflict graphs the declared-vs-learned tests run
// on: sparse and dense random graphs, a star (one key adjacent to all),
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
		t.respawn = declaredChainTask{t}
		tasks = append(tasks, t.respawn)
	}
	return tasks
}

// TestDeclaredGraphEquivalence is the differential test between the two
// sources of a LearnedGraph: what the tasks declare must be what the
// recorder observes when the same tasks, their Footprint hidden behind
// Keyed, drain speculatively — same keys, same footprint per key, same
// adjacency sets.
func TestDeclaredGraphEquivalence(t *testing.T) {
	for _, tc := range declaredCases {
		for _, cc := range []bool{false, true} {
			tasks := footprintedTasks(tc.build(), cc)

			declaring := NewExecutor(nil)
			for _, task := range tasks {
				declaring.Add(task)
			}
			var cs coloredState
			declared := declaring.declare(&cs)
			if declared == nil {
				t.Fatalf("%s cc=%v: declare refused", tc.name, cc)
			}

			learning := NewExecutor(nil)
			learning.MaxParallel = 2
			learning.rec = NewConflictRecorder(0, 0)
			for _, task := range tasks {
				learning.Add(Keyed(task.(ConflictKeyed).ConflictKey(), task))
			}
			driveAll(context.Background(), learning, testHybrid(0.25), Options{})
			learned := learning.rec.Snapshot()
			learning.Close()
			if learned == nil {
				t.Fatalf("%s cc=%v: nothing learned", tc.name, cc)
			}

			if !slices.Equal(declared.keys, learned.keys) {
				t.Fatalf("%s cc=%v: declared keys %v, learned %v", tc.name, cc, declared.keys, learned.keys)
			}
			if !slices.Equal(declared.fpOff, learned.fpOff) || !slices.Equal(declared.fpSeqs, learned.fpSeqs) {
				t.Fatalf("%s cc=%v: declared and learned footprints differ", tc.name, cc)
			}
			for i := range declared.keys {
				d := slices.Clone(declared.CSR().Neighbors(i))
				l := slices.Clone(learned.CSR().Neighbors(i))
				slices.Sort(d)
				slices.Sort(l)
				if !slices.Equal(d, l) {
					t.Fatalf("%s cc=%v: key %d declared neighbors %v, learned %v", tc.name, cc, declared.keys[i], d, l)
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
		lg := e.declare(&cs)
		colors, numColors := graph.ColorCSR(lg.CSR(), nil, 2)
		holder := make([]map[*Item]int64, numColors)
		for i := range holder {
			holder[i] = make(map[*Item]int64)
		}
		for _, task := range tasks {
			ft := task.(Footprinted)
			class := holder[colors[lg.KeyIndex(ft.ConflictKey())]]
			for _, it := range ft.Footprint() {
				if other, taken := class[it]; taken {
					t.Fatalf("%s: keys %d and %d share item %d in one color class", tc.name, other, ft.ConflictKey(), it.Seq)
				}
				class[it] = ft.ConflictKey()
			}
		}
	}
}

// TestLearnedGraphBuildDeduplicates: a footprint that names an item
// twice, two keys that share two items, and negative Seqs all come out
// as one sorted footprint entry and one edge each.
func TestLearnedGraphBuildDeduplicates(t *testing.T) {
	a, b, c := NewItem(-3), NewItem(1<<40), NewItem(9)
	mk := func(key int64, items ...*Item) Task {
		return declaredChainTask{&stableChainTask{key: key, items: items}}
	}
	e := NewExecutor(nil)
	e.Add(mk(20, b, a, b))
	e.Add(mk(10, a, b, c))
	e.Add(mk(30, c))
	var cs coloredState
	lg := e.declare(&cs)
	if lg == nil || !slices.Equal(lg.keys, []int64{10, 20, 30}) {
		t.Fatalf("declare = %+v", lg)
	}
	if want := []int64{-3, 9, 1 << 40, -3, 1 << 40, 9}; !slices.Equal(lg.fpSeqs, want) || !slices.Equal(lg.fpOff, []int32{0, 3, 5, 6}) {
		t.Fatalf("footprints %v at %v, want %v", lg.fpSeqs, lg.fpOff, want)
	}
	if lg.CSR().NumEdges() != 2 || !slices.Equal(lg.CSR().Neighbors(0), []int32{1, 2}) {
		t.Fatalf("adjacency of key 10: %v (%d edges), want keys 20 and 30 once each", lg.CSR().Neighbors(0), lg.CSR().NumEdges())
	}
	if !lg.covers(1, []*Item{a, b}) || lg.covers(1, []*Item{c}) || lg.KeyIndex(25) != -1 {
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
