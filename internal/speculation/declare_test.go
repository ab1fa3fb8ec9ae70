package speculation

import (
	"cmp"
	"slices"
	"sync"
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

// overlapNeighbors is the brute-force conflict graph of a set of
// footprints: j is a neighbor of i iff the two share an *Item, by
// pointer, found by comparing every pair.
func overlapNeighbors(fps [][]*Item) [][]int32 {
	nbrs := make([][]int32, len(fps))
	for i := range fps {
		for j := range fps {
			if j != i && slices.ContainsFunc(fps[i], func(it *Item) bool { return slices.Contains(fps[j], it) }) {
				nbrs[i] = append(nbrs[i], int32(j))
			}
		}
	}
	return nbrs
}

// checkDeclaredNeighbors fails unless cg's adjacency is want's, row by
// row.
func checkDeclaredNeighbors(t *testing.T, cg *ConflictGraph, want [][]int32) {
	t.Helper()
	if cg.CSR().NumNodes() != len(want) {
		t.Fatalf("declared graph has %d keys, want %d", cg.CSR().NumNodes(), len(want))
	}
	for i, nb := range want {
		got := slices.Clone(cg.CSR().Neighbors(i))
		slices.Sort(got)
		if !slices.Equal(got, nb) {
			t.Fatalf("key %d: declared neighbors %v, pairwise overlaps %v", cg.keys[i], got, nb)
		}
	}
}

// TestDeclaredGraphEquivalence checks the declared ConflictGraph against
// a brute-force one built here from the same declarations: the keys in
// order, and an edge between two keys iff their footprints share an item
// — the same *Item, whatever the Seqs say.
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

			fts := make([]Footprinted, len(tasks))
			for i, task := range tasks {
				fts[i] = task.(Footprinted)
			}
			slices.SortFunc(fts, func(a, b Footprinted) int { return cmp.Compare(a.ConflictKey(), b.ConflictKey()) })
			if len(declared.keys) != len(fts) {
				t.Fatalf("%s cc=%v: %d declared keys, want %d", tc.name, cc, len(declared.keys), len(fts))
			}
			fps := make([][]*Item, len(fts))
			for i, ft := range fts {
				fps[i] = ft.Footprint()
				if declared.keys[i] != ft.ConflictKey() {
					t.Fatalf("%s cc=%v: index %d holds key %d, want key %d", tc.name, cc, i, declared.keys[i], ft.ConflictKey())
				}
			}
			checkDeclaredNeighbors(t, declared, overlapNeighbors(fps))
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
		colors, numColors := graph.ColorCSR(cg.CSR(), nil)
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
// twice and two keys that share two items come out as one edge each.
func TestConflictGraphBuildDeduplicates(t *testing.T) {
	a, b, c := NewItem(-3), NewItem(1<<40), NewItem(9)
	fps := [][]*Item{{a, b, c}, {b, a, b}, {c}} // keys 10, 20, 30
	e := NewExecutor(nil)
	e.Add(&stableChainTask{key: 20, items: fps[1]})
	e.Add(&stableChainTask{key: 10, items: fps[0]})
	e.Add(&stableChainTask{key: 30, items: fps[2]})
	var cs coloredState
	cg := e.declare(&cs)
	if cg == nil || !slices.Equal(cg.keys, []int64{10, 20, 30}) {
		t.Fatalf("declare = %+v", cg)
	}
	if cg.CSR().NumEdges() != 2 || !slices.Equal(cg.CSR().Neighbors(0), []int32{1, 2}) {
		t.Fatalf("adjacency of key 10: %v (%d edges), want keys 20 and 30 once each", cg.CSR().Neighbors(0), cg.CSR().NumEdges())
	}
	if cg.KeyIndex(20) != 1 || cg.KeyIndex(25) != -1 {
		t.Fatal("KeyIndex disagrees with the declarations")
	}
}

// TestDeclareComparesItemsByIdentity: Seq is a diagnostic tag, so two
// keys declaring distinct items with one Seq do not conflict, and two
// keys declaring one item do, whatever else they declare.
func TestDeclareComparesItemsByIdentity(t *testing.T) {
	shared := NewItem(5)
	e := NewExecutor(nil)
	e.Add(&stableChainTask{key: 0, items: []*Item{NewItem(1), NewItem(7)}})
	e.Add(&stableChainTask{key: 1, items: []*Item{NewItem(1), shared}})
	e.Add(&stableChainTask{key: 2, items: []*Item{NewItem(7), shared}})
	var cs coloredState
	cg := e.declare(&cs)
	if cg == nil {
		t.Fatal("declare refused")
	}
	checkDeclaredNeighbors(t, cg, [][]int32{nil, {2}, {1}})
}

// TestDeclareAgainSameGraph: declaring the same items again — as a
// drive does after a soft trip, or as a second executor does once the
// first is done — gives the same graph, whatever builds ran in between:
// an item's slot from an earlier build never reads as current.
func TestDeclareAgainSameGraph(t *testing.T) {
	tasks := footprintedTasks(graph.RandomWithAvgDegree(rng.New(9), 200, 6), true)
	declare := func(tasks []Task) *ConflictGraph {
		t.Helper()
		e := NewExecutor(nil)
		defer e.Close()
		for _, task := range tasks {
			e.Add(task)
		}
		var cs coloredState
		cg := e.declare(&cs)
		if cg == nil {
			t.Fatal("declare refused")
		}
		return cg
	}
	slices.SortFunc(tasks, func(a, b Task) int {
		return cmp.Compare(a.(Footprinted).ConflictKey(), b.(Footprinted).ConflictKey())
	})
	fps := make([][]*Item, len(tasks))
	var evens []Task
	for i, task := range tasks {
		fps[i] = task.(Footprinted).Footprint()
		if i%2 == 0 {
			evens = append(evens, task)
		}
	}
	want := overlapNeighbors(fps)

	e := NewExecutor(nil)
	defer e.Close()
	for _, task := range tasks {
		e.Add(task)
	}
	var cs coloredState
	checkDeclaredNeighbors(t, e.declare(&cs), want)
	declare(evens) // restamps half the items under other dense indices
	checkDeclaredNeighbors(t, e.declare(&cs), want)
	reversed := slices.Clone(tasks)
	slices.Reverse(reversed)
	checkDeclaredNeighbors(t, declare(reversed), want)
}

// TestDeclareConcurrentExecutors: executors of different jobs declare at
// once, each over its own items, sharing only the generation counter,
// and each gets its own graph every time.
func TestDeclareConcurrentExecutors(t *testing.T) {
	const workers, declares = 4, 5
	var want [workers][][]int32
	var got [workers][declares]*ConflictGraph
	var wg sync.WaitGroup
	for w := range workers {
		tasks := footprintedTasks(graph.RandomWithAvgDegree(rng.New(uint64(w+1)), 300, 6), true)
		fps := make([][]*Item, len(tasks))
		for i, task := range tasks {
			fps[i] = task.(Footprinted).Footprint()
		}
		want[w] = overlapNeighbors(fps) // cc keys are the node IDs 0..299
		e := NewExecutor(nil)
		defer e.Close()
		for _, task := range tasks {
			e.Add(task)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cs coloredState
			for i := range declares {
				got[w][i] = e.declare(&cs)
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		for _, cg := range got[w] {
			if cg == nil {
				t.Fatalf("executor %d: declare refused", w)
			}
			checkDeclaredNeighbors(t, cg, want[w])
		}
	}
}

// TestDeclareAllocationsIndependentOfSize: the builder chains and
// walks through a fixed set of buffers — no map entry, slice or node
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

// FuzzDeclare reads footprints over a twelve-item pool from the fuzzer's
// bytes — repeats within a footprint, items shared between keys, Seq
// aliases (three items to each Seq) and a crowd of keys on one item that
// can pass maxDeclaredHolders — and checks declare against brute force:
// it refuses exactly when a count of holders or of distinct items
// exceeds its bound; otherwise its graph is the pairwise pointer-overlap
// graph, a second declare gives it again, and its coloring is proper.
func FuzzDeclare(f *testing.F) {
	f.Add(byte(0), []byte{2, 0, 1, 3, 1, 1, 4, 2, 5, 5, 0})
	f.Add(byte(maxDeclaredHolders), []byte{1, 0})
	f.Add(byte(maxDeclaredHolders-1), []byte{1, 0, 2, 4, 8})
	f.Fuzz(func(t *testing.T, crowd byte, raw []byte) {
		const poolSize = 12
		pool := make([]*Item, poolSize)
		for i := range pool {
			pool[i] = NewItem(int64(i % 4))
		}
		var fps [][]*Item
		for range int(crowd) % (maxDeclaredHolders + 8) {
			fps = append(fps, pool[:1])
		}
		for extra := 0; len(raw) > 0 && extra < 64; extra++ {
			n := min(int(raw[0]%8), len(raw)-1)
			fp := make([]*Item, n)
			for j, b := range raw[1 : 1+n] {
				fp[j] = pool[b%poolSize]
			}
			fps = append(fps, fp)
			raw = raw[1+n:]
		}

		holders := make(map[*Item]int)
		for _, fp := range fps {
			for j, it := range fp {
				if !slices.Contains(fp[:j], it) {
					holders[it]++
				}
			}
		}
		refuse := len(holders) > maxDeclaredItems
		for _, h := range holders {
			refuse = refuse || h > maxDeclaredHolders
		}

		// Keys grow with the index, so dense index i is fps[i]; adding the
		// tasks in reverse keeps the batch out of key order.
		e := NewExecutor(nil)
		for i := len(fps) - 1; i >= 0; i-- {
			e.Add(&stableChainTask{key: int64(3*i - 7), items: fps[i]})
		}
		var cs coloredState
		cg := e.declare(&cs)
		if (cg == nil) != refuse {
			t.Fatalf("declare refused=%v over %d keys, brute force says %v", cg == nil, len(fps), refuse)
		}
		if cg == nil {
			return
		}
		want := overlapNeighbors(fps)
		checkDeclaredNeighbors(t, cg, want)
		checkDeclaredNeighbors(t, e.declare(&cs), want)
		colors, _ := graph.ColorCSR(cg.CSR(), nil)
		if !graph.IsProperColoring(cg.CSR(), colors) {
			t.Fatal("the declared graph's coloring is not proper")
		}
	})
}
