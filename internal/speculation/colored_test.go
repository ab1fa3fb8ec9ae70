package speculation

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/rng"
)

// stableChainTask is the test fixture for colored execution: a task
// with a fixed conflict footprint (its node item plus the incident edge
// items of a fixed conflict graph) that respawns itself until it has
// committed `repeats` times. The conflict structure never changes, so a
// colored drive should learn it, color it, and run the tail of the
// drain lock-free.
type stableChainTask struct {
	key      int64
	items    []*Item
	left     atomic.Int64
	commitFn func()
	// extra, when non-nil, returns an additional item to acquire — the
	// staleness tests use it to mutate a footprint mid-drive.
	extra func() *Item
	// respawn is what Run spawns: the task itself, or the wrapper that
	// declares for it.
	respawn Task
}

// declaredChainTask is a stableChainTask that also declares its
// footprint, so a colored drive never learns it.
type declaredChainTask struct{ *stableChainTask }

func (t declaredChainTask) Footprint() []*Item { return t.items }

func (t *stableChainTask) ConflictKey() int64 { return t.key }

func (t *stableChainTask) Run(ctx *Ctx) error {
	if err := ctx.AcquireAll(t.items...); err != nil {
		return err
	}
	if t.extra != nil {
		if it := t.extra(); it != nil {
			if err := ctx.Acquire(it); err != nil {
				return err
			}
		}
	}
	if t.left.Load() > 1 {
		ctx.Spawn(t.respawn)
	}
	ctx.OnCommit(t.commitFn)
	return nil
}

// buildStableFixture wires one stableChainTask per node of g into a
// fresh executor with the model's seeded uniform-random selection (so
// learning covers every chain).
func buildStableFixture(g *graph.Graph, repeats, parallel int, seed uint64) (*Executor, []*stableChainTask, *atomic.Int64) {
	return buildChainFixture(g, repeats, parallel, seed, false)
}

// buildDeclaredFixture is buildStableFixture with Footprinted tasks.
func buildDeclaredFixture(g *graph.Graph, repeats, parallel int, seed uint64) (*Executor, []*stableChainTask, *atomic.Int64) {
	return buildChainFixture(g, repeats, parallel, seed, true)
}

func buildChainFixture(g *graph.Graph, repeats, parallel int, seed uint64, declared bool) (*Executor, []*stableChainTask, *atomic.Int64) {
	r := rng.New(seed)
	var mu sync.Mutex
	e := NewExecutor(func(n int) int {
		mu.Lock()
		defer mu.Unlock()
		return r.Intn(n)
	})
	e.MaxParallel = parallel

	nodes := g.Nodes()
	fps := GraphFootprints(g)

	total := new(atomic.Int64)
	tasks := make([]*stableChainTask, 0, len(nodes))
	for _, v := range nodes {
		t := &stableChainTask{key: int64(v), items: fps[v]}
		t.left.Store(int64(repeats))
		tt := t
		t.commitFn = func() {
			tt.left.Add(-1)
			total.Add(1)
		}
		tasks = append(tasks, t)
		t.respawn = t
		if declared {
			t.respawn = declaredChainTask{t}
		}
		e.Add(t.respawn)
	}
	return e, tasks, total
}

// checkChainsDrained is the fixture's oracle: every chain committed
// exactly repeats times and nothing is pending.
func checkChainsDrained(t *testing.T, e *Executor, tasks []*stableChainTask, total *atomic.Int64, repeats int) {
	t.Helper()
	if got, want := total.Load(), int64(len(tasks)*repeats); got != want {
		t.Fatalf("committed %d chain steps, want %d", got, want)
	}
	for _, task := range tasks {
		if l := task.left.Load(); l != 0 {
			t.Fatalf("chain %d left=%d, want 0", task.key, l)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after drain", e.Pending())
	}
}

func testHybrid(rho float64) control.Controller {
	cfg := control.DefaultHybridConfig(rho)
	cfg.MMax = 64
	return control.NewHybrid(cfg)
}

func TestRunColoredStableDrains(t *testing.T) {
	g := graph.Grid2D(8, 8)
	const repeats = 12
	e, tasks, total := buildStableFixture(g, repeats, 4, 7)
	defer e.Close()

	var coloredAborted int
	res := driveAll(context.Background(), e, testHybrid(0.25), Options{Mode: ModeColored,
		OnRound: func(cr Sample) {
			if cr.Colored {
				coloredAborted += cr.Aborted
			}
		},
	})

	checkChainsDrained(t, e, tasks, total, repeats)
	if want := int64(len(tasks) * repeats); res.Committed != want {
		t.Fatalf("res.Committed=%d, want %d", res.Committed, want)
	}
	if res.Colorings == 0 || res.ColoredRounds == 0 {
		t.Fatalf("drive never entered the colored phase: %+v", res)
	}
	if res.Fallbacks != 0 || res.ColoredAborts != 0 || coloredAborted != 0 {
		t.Fatalf("stable workload tripped staleness: fallbacks=%d coloredAborts=%d",
			res.Fallbacks, res.ColoredAborts)
	}
	if res.ColoredConflictRatio() != 0 {
		t.Fatalf("colored conflict ratio %v, want 0", res.ColoredConflictRatio())
	}
	if res.Degraded || res.Canceled {
		t.Fatalf("unexpected degraded/canceled: %+v", res)
	}
	// The whole point: the bulk of the drain should run colored.
	if res.ColoredCommits == 0 {
		t.Fatal("no colored commits")
	}
}

// TestRecorderSnapshotColoringIndependent is the color-class property
// test at the learning layer: feed the recorder the footprints of a
// known conflict graph, snapshot, color, and assert (a) the learned CSR
// has exactly the real conflict edges and (b) every color class is an
// independent set of the learned CSR.
func TestRecorderSnapshotColoringIndependent(t *testing.T) {
	g := graph.RandomWithAvgDegree(rng.New(3), 120, 6.0)
	rec := NewConflictRecorder(0, 0)

	fps := GraphFootprints(g)
	footprint := func(v int) []*Item { return fps[v] }
	for _, v := range g.Nodes() {
		rec.recordCommit(Keyed(int64(v), TaskFunc(func(*Ctx) error { return nil })), footprint(v))
	}
	rec.roundDone()
	for i := 0; i < DefaultStableRounds; i++ {
		rec.recordCommit(Keyed(int64(g.Nodes()[0]), TaskFunc(func(*Ctx) error { return nil })), footprint(g.Nodes()[0]))
		rec.roundDone()
	}
	if !rec.Stable(DefaultStableRounds) {
		t.Fatal("recorder not stable after quiet rounds")
	}
	lg := rec.Snapshot()
	if lg == nil {
		t.Fatal("nil snapshot")
	}
	if lg.NumKeys() != g.NumNodes() {
		t.Fatalf("snapshot has %d keys, want %d", lg.NumKeys(), g.NumNodes())
	}

	// (a) learned edges == real conflict edges.
	csr := lg.CSR()
	if csr.NumEdges() != g.NumEdges() {
		t.Fatalf("learned %d edges, want %d", csr.NumEdges(), g.NumEdges())
	}
	for i := 0; i < csr.NumNodes(); i++ {
		u := int(lg.Key(i))
		for _, jn := range csr.Neighbors(i) {
			v := int(lg.Key(int(jn)))
			if !g.HasEdge(u, v) {
				t.Fatalf("learned edge (%d,%d) not in the real conflict graph", u, v)
			}
		}
	}

	// (b) every color class is an independent set of the learned CSR.
	colors, numColors := graph.ColorCSR(csr, nil, 2)
	if !graph.IsProperColoring(csr, colors) {
		t.Fatal("coloring of learned CSR not proper")
	}
	classes := make([][]int, numColors)
	for i := 0; i < csr.NumNodes(); i++ {
		classes[colors[i]] = append(classes[colors[i]], int(lg.Key(i)))
	}
	for col, class := range classes {
		if !graph.IsIndependentSet(g, class) {
			t.Fatalf("color class %d not independent in the source conflict graph", col)
		}
	}

	// Footprint membership round-trips.
	for _, v := range g.Nodes() {
		idx := lg.KeyIndex(int64(v))
		if idx < 0 {
			t.Fatalf("key %d missing from snapshot", v)
		}
		for _, it := range footprint(v) {
			if !lg.InFootprint(idx, it.Seq) {
				t.Fatalf("item %d missing from key %d's footprint", it.Seq, v)
			}
		}
		if lg.InFootprint(idx, int64(1)<<62) {
			t.Fatalf("phantom item in key %d's footprint", v)
		}
	}
	if lg.KeyIndex(1<<40) != -1 || rec.Knows(1<<40) {
		t.Fatal("unknown key resolved to an index")
	}

	// The drive tests coverage with Knows before paying for a snapshot,
	// so the two must agree on which keys exist.
	for v := -1; v <= 130; v++ {
		if rec.Knows(int64(v)) != (lg.KeyIndex(int64(v)) >= 0) {
			t.Fatalf("Knows(%d) = %v disagrees with the snapshot", v, rec.Knows(int64(v)))
		}
	}
	rec.Reset()
	if rec.Knows(int64(g.Nodes()[0])) {
		t.Fatal("Reset kept a known key")
	}
}

// TestRunColoredStalenessFallback mutates one task's footprint after
// the drive enters the colored phase and asserts the very next colored
// round trips the fallback — and that the drive still drains with the
// exact commit count (no correctness loss).
func TestRunColoredStalenessFallback(t *testing.T) {
	g := graph.Grid2D(8, 8)
	const repeats = 60
	e, tasks, total := buildStableFixture(g, repeats, 4, 11)
	defer e.Close()

	extraItem := NewItem(1 << 40) // far outside every learned footprint
	var mutate atomic.Bool
	tasks[0].extra = func() *Item {
		if mutate.Load() {
			return extraItem
		}
		return nil
	}

	type roundView struct {
		colored  bool
		fallback bool
	}
	var trace []roundView
	mutatedAt := -1
	res := driveAll(context.Background(), e, testHybrid(0.25), Options{Mode: ModeColored,
		OnRound: func(cr Sample) {
			trace = append(trace, roundView{colored: cr.Colored, fallback: cr.Fallback})
			if cr.Colored && mutatedAt < 0 {
				if l := tasks[0].left.Load(); l <= 1 {
					t.Fatalf("chain 0 nearly drained (left=%d) before the colored phase; raise repeats", l)
				}
				mutate.Store(true)
				mutatedAt = cr.Index
			}
		},
	})

	if mutatedAt < 0 {
		t.Fatalf("drive never entered the colored phase: %+v", res)
	}
	// The round after the mutation is still colored (the stale graph is
	// only detected by running it) and must trip the fallback.
	next := mutatedAt + 1
	if next >= len(trace) {
		t.Fatalf("drive ended immediately after mutation (round %d of %d)", mutatedAt, len(trace))
	}
	if !trace[next].colored || !trace[next].fallback {
		t.Fatalf("round %d after mutation: colored=%v fallback=%v, want colored fallback",
			next, trace[next].colored, trace[next].fallback)
	}
	// Fallback means the following round (if any) is speculative again.
	if next+1 < len(trace) && trace[next+1].colored {
		t.Fatal("round after fallback still colored")
	}
	if res.Fallbacks == 0 {
		t.Fatalf("no fallbacks recorded: %+v", res)
	}

	// Correctness: the mutation costs throughput, never commits.
	checkChainsDrained(t, e, tasks, total, repeats)
}

// TestRunColoredUnkeyedStaysSpeculative: tasks without ConflictKey can
// be driven in ModeColored, but the drive degrades to pure speculation.
func TestRunColoredUnkeyedStaysSpeculative(t *testing.T) {
	e := NewExecutor(nil)
	e.MaxParallel = 2
	defer e.Close()
	var runs atomic.Int64
	for i := 0; i < 16; i++ {
		remaining := 5
		var task TaskFunc
		task = func(ctx *Ctx) error {
			runs.Add(1)
			remaining--
			if remaining > 0 {
				ctx.Spawn(task)
			}
			return nil
		}
		e.Add(task)
	}
	res := driveAll(context.Background(), e, testHybrid(0.25), Options{Mode: ModeColored})
	if !res.Degraded {
		t.Fatalf("unkeyed drive not degraded: %+v", res)
	}
	if res.ColoredRounds != 0 || res.Colorings != 0 {
		t.Fatalf("unkeyed drive entered colored phase: %+v", res)
	}
	if got := runs.Load(); got != 16*5 {
		t.Fatalf("ran %d attempts, want %d", got, 16*5)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after drain", e.Pending())
	}
}

func TestRunColoredCancel(t *testing.T) {
	g := graph.Grid2D(4, 4)
	e, _, _ := buildStableFixture(g, 1000, 2, 3)
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	res := driveAll(ctx, e, testHybrid(0.25), Options{Mode: ModeColored,
		OnRound: func(Sample) {
			rounds++
			if rounds == 5 {
				cancel()
			}
		},
	})
	if !res.Canceled {
		t.Fatalf("drive not canceled: %+v", res)
	}
	if res.Samples > 6 {
		t.Fatalf("drive ran %d rounds after cancel at 5", res.Samples)
	}
}

func TestRunColoredMaxBounds(t *testing.T) {
	g := graph.Grid2D(6, 6)
	e, _, _ := buildStableFixture(g, 1000, 2, 5)
	defer e.Close()
	res := driveAll(context.Background(), e, testHybrid(0.25), Options{Mode: ModeColored, MaxSamples: 4})
	if res.Samples != 4 || res.Canceled {
		t.Fatalf("MaxSamples: got %d rounds (canceled=%v), want 4", res.Samples, res.Canceled)
	}

	e2, _, _ := buildStableFixture(g, 1000, 2, 5)
	defer e2.Close()
	res2 := driveAll(context.Background(), e2, testHybrid(0.25), Options{Mode: ModeColored, MaxCommits: 100})
	if res2.Committed < 100 {
		t.Fatalf("MaxCommits: committed %d, want >= 100", res2.Committed)
	}
}

func TestConflictRecorderOverflowNeverStable(t *testing.T) {
	rec := NewConflictRecorder(2, 4)
	items := []*Item{NewItem(1), NewItem(2), NewItem(3)}
	task := Keyed(9, TaskFunc(func(*Ctx) error { return nil }))
	rec.recordCommit(task, items)
	rec.roundDone()
	if !rec.Degraded() {
		t.Fatal("3 items under a 2-item cap did not overflow")
	}
	for i := 0; i < 10; i++ {
		rec.recordCommit(task, items[:1])
		rec.roundDone()
	}
	if rec.Stable(1) {
		t.Fatal("overflowed recorder claimed stability")
	}
	if rec.Snapshot() != nil {
		t.Fatal("overflowed recorder produced a snapshot")
	}
	rec.Reset()
	if rec.Degraded() {
		t.Fatal("Reset did not clear overflow")
	}
}

func TestKeyedWrapper(t *testing.T) {
	ran := false
	task := Keyed(42, TaskFunc(func(*Ctx) error { ran = true; return nil }))
	kt, ok := task.(ConflictKeyed)
	if !ok || kt.ConflictKey() != 42 {
		t.Fatal("Keyed did not attach the key")
	}
	if err := task.Run(&Ctx{}); err != nil || !ran {
		t.Fatal("Keyed did not delegate Run")
	}
}

// TestRunColoredDeclaredStartsColored: Footprinted tasks never learn —
// the first sample is a colored super-round and every commit is colored.
func TestRunColoredDeclaredStartsColored(t *testing.T) {
	const repeats = 12
	e, tasks, total := buildDeclaredFixture(graph.Grid2D(8, 8), repeats, 4, 7)
	defer e.Close()
	res := driveAll(context.Background(), e, testHybrid(0.25), Options{Mode: ModeColored})
	checkChainsDrained(t, e, tasks, total, repeats)
	if res.SpecRounds != 0 || res.ColoredRounds != repeats || res.Colorings != 1 || res.Fallbacks != 0 {
		t.Fatalf("want %d colored super-rounds from one declared coloring and nothing else: %+v", repeats, res.Result)
	}
	if res.ColoredCommits != res.Committed || res.ColoredAborts != 0 || res.Degraded {
		t.Fatalf("declared drive committed outside colored rounds: %+v", res.Result)
	}
}

// TestRunColoredLyingDeclaration: a task that acquires one item beyond
// what it declared trips a hard fallback on the first super-round; the
// drive never declares again, learns the real footprint and still
// commits every task exactly once per step.
func TestRunColoredLyingDeclaration(t *testing.T) {
	const repeats = 40
	e, tasks, total := buildDeclaredFixture(graph.Grid2D(8, 8), repeats, 4, 11)
	defer e.Close()
	undeclared := NewItem(1 << 40)
	tasks[0].extra = func() *Item { return undeclared }

	res := driveAll(context.Background(), e, testHybrid(0.25), Options{Mode: ModeColored})
	checkChainsDrained(t, e, tasks, total, repeats)
	first := res.Trajectory[0]
	if !first.Colored || !first.Fallback || first.Committed != len(tasks) {
		t.Fatalf("first sample %+v, want a colored super-round that committed everything and tripped", first)
	}
	if res.Trajectory[1].Colored {
		t.Fatal("the drive declared again after the declarations lied")
	}
	if res.Fallbacks != 1 || res.SpecRounds == 0 {
		t.Fatalf("want exactly the one hard fallback, then learning: %+v", res.Result)
	}
	// What it learned includes the undeclared item, so the learned
	// coloring holds to the end.
	if res.Colorings != 2 || !res.Trajectory[len(res.Trajectory)-1].Colored {
		t.Fatalf("the learned coloring never took over: %+v", res.Result)
	}
}

// TestRunColoredRedeclaresOnce: new Footprinted work the declarations
// did not cover is a soft trip; the drive declares again from the
// pending set, once, and learns after a second soft trip.
func TestRunColoredRedeclaresOnce(t *testing.T) {
	e := NewExecutor(nil)
	e.MaxParallel = 2
	defer e.Close()
	var commits atomic.Int64
	var chain func(key int64, left int) Task
	chain = func(key int64, more int) Task {
		t := &stableChainTask{key: key, items: []*Item{NewItem(key)}}
		t.commitFn = func() { commits.Add(1) }
		if more > 0 {
			t.left.Store(2) // Run spawns respawn: a key nobody declared yet
			t.respawn = chain(key+1, more-1)
		}
		return declaredChainTask{t}
	}
	e.Add(chain(0, 3))
	res := driveAll(context.Background(), e, testHybrid(0.25), Options{Mode: ModeColored})
	if e.Pending() != 0 || commits.Load() != 4 {
		t.Fatalf("pending=%d commits=%d, want a drained chain of 4", e.Pending(), commits.Load())
	}
	var shape []bool
	for _, s := range res.Trajectory {
		shape = append(shape, s.Colored)
	}
	// declared (soft trip: key 1 unknown), re-declared (soft trip: key 2
	// unknown), then learning rounds only.
	if len(shape) < 3 || !shape[0] || !shape[1] || slices.Contains(shape[2:], true) {
		t.Fatalf("colored samples %v, want exactly the first two", shape)
	}
	if res.Fallbacks != 2 || res.Colorings != 2 {
		t.Fatalf("want two declared colorings, both tripped softly: %+v", res.Result)
	}
}

// TestDeclareRefuses pins the three refusals: a pending task that cannot
// declare, two live tasks with one key, an item over the holder bound.
// Each leaves the work-set as it found it.
func TestDeclareRefuses(t *testing.T) {
	noop := TaskFunc(func(*Ctx) error { return nil })
	declared := func(key int64, items ...*Item) Task {
		return declaredChainTask{&stableChainTask{key: key, items: items}}
	}
	shared := NewItem(7)
	var crowd []Task
	for k := 0; k <= DefaultRecorderMaxKeysPerItem; k++ {
		crowd = append(crowd, declared(int64(k), shared))
	}
	for _, tc := range []struct {
		name  string
		tasks []Task
		ok    bool
	}{
		{"undeclared", []Task{declared(1, NewItem(1)), Keyed(2, noop)}, false},
		{"shared key", []Task{declared(1, NewItem(1)), declared(1, NewItem(2))}, false},
		{"crowded item", crowd, false},
		{"item at the bound", crowd[1:], true},
	} {
		e := NewExecutor(nil)
		for _, task := range tc.tasks {
			e.Add(task)
		}
		var cs coloredState
		if lg := e.declare(&cs); (lg != nil) != tc.ok {
			t.Errorf("%s: declare returned %v", tc.name, lg)
		}
		if e.Pending() != len(tc.tasks) {
			t.Errorf("%s: declare left %d of %d tasks pending", tc.name, e.Pending(), len(tc.tasks))
		}
	}
}

// TestRunColoredDeclaredCancelMidSuperRound: a declared job can be one
// super-round, so a stop has to land at a class barrier. The first commit
// action cancels ctx: the classes not yet launched are requeued
// untouched, and a second drive finishes the job with nothing lost or run
// twice.
func TestRunColoredDeclaredCancelMidSuperRound(t *testing.T) {
	e, tasks, total := buildDeclaredFixture(graph.Grid2D(10, 10), 1, 2, 5)
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, task := range tasks {
		commit := task.commitFn
		task.commitFn = func() { commit(); cancel() }
	}

	res := driveAll(ctx, e, testHybrid(0.25), Options{Mode: ModeColored})
	n := int64(len(tasks))
	if !res.Canceled || res.Samples != 1 || res.Launched >= n || res.Launched == 0 {
		t.Fatalf("want one cut-short super-round: %+v", res.Result)
	}
	if res.Committed != res.Launched || total.Load() != res.Committed || int64(e.Pending()) != n-res.Committed {
		t.Fatalf("committed=%d total=%d pending=%d of %d launched=%d", res.Committed, total.Load(), e.Pending(), n, res.Launched)
	}
	if res.Fallbacks != 0 {
		t.Fatalf("a stop is not staleness: %+v", res.Result)
	}
	driveAll(context.Background(), e, testHybrid(0.25), Options{Mode: ModeColored})
	checkChainsDrained(t, e, tasks, total, 1)
}
