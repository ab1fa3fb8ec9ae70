package speculation

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/rng"
)

// stableChainTask is the test fixture for colored execution: a task
// with a fixed, declared conflict footprint (its node item plus the
// incident edge items of a fixed conflict graph) that respawns itself
// until it has committed `repeats` times. The conflict structure never
// changes, so a colored drive colors it once and runs the whole drain in
// colored super-rounds.
type stableChainTask struct {
	key      int64
	items    []*Item
	left     atomic.Int64
	commitFn func()
	// extra, when non-nil, returns an additional item to acquire — the
	// staleness tests use it to mutate a footprint mid-drive.
	extra func() *Item
	// respawn is what Run spawns: nil for the task itself.
	respawn Task
}

func (t *stableChainTask) ConflictKey() int64 { return t.key }

func (t *stableChainTask) Footprint() []*Item { return t.items }

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
		if t.respawn != nil {
			ctx.Spawn(t.respawn)
		} else {
			ctx.Spawn(t)
		}
	}
	ctx.OnCommit(t.commitFn)
	return nil
}

// buildStableFixture wires one stableChainTask per node of g into a
// fresh executor with the model's seeded uniform-random selection.
func buildStableFixture(g *graph.Graph, repeats, parallel int, seed uint64) (*Executor, []*stableChainTask, *atomic.Int64) {
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
		e.Add(t)
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
	g := graph.RandomWithAvgDegree(rng.New(17), 256, 8.0)
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
	if res.Canceled {
		t.Fatalf("unexpected cancel: %+v", res)
	}
	// The whole point: the bulk of the drain should run colored.
	if res.ColoredCommits == 0 {
		t.Fatal("no colored commits")
	}
}

// classmate returns a task of tasks[0]'s color class other than tasks[0]
// itself: one that a colored drive of e runs in the same round as it.
func classmate(t *testing.T, e *Executor, tasks []*stableChainTask) *stableChainTask {
	t.Helper()
	var cs coloredState
	cg := e.declare(&cs)
	if cg == nil {
		t.Fatal("declare refused")
	}
	colors, _ := graph.ColorCSR(cg.CSR(), nil)
	class := colors[cg.KeyIndex(tasks[0].key)]
	for _, task := range tasks[1:] {
		if colors[cg.KeyIndex(task.key)] == class {
			return task
		}
	}
	t.Fatal("tasks[0] is alone in its color class")
	return nil
}

// TestRunColoredStalenessFallback mutates two footprints of one color
// class after the first colored super-round — both tasks start acquiring
// one undeclared item — and asserts the very next super-round trips the
// fallback, that the drive finishes in rounds, and that it still drains
// with the exact commit count (no correctness loss).
func TestRunColoredStalenessFallback(t *testing.T) {
	g := graph.Grid2D(8, 8)
	const repeats = 60
	e, tasks, total := buildStableFixture(g, repeats, 4, 11)
	defer e.Close()

	extraItem := NewItem(1 << 40) // far outside every declared footprint
	var mutate atomic.Bool
	extra := func() *Item {
		if mutate.Load() {
			return extraItem
		}
		return nil
	}
	tasks[0].extra = extra
	classmate(t, e, tasks).extra = extra

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
	if s := res.Trajectory[next]; s.Aborted != 1 {
		t.Fatalf("round %d after mutation aborted %d tasks, want the later of the two colliders", next, s.Aborted)
	}
	// A hard trip: every round after it is speculative.
	for i, v := range trace[next+1:] {
		if v.colored {
			t.Fatalf("round %d after the hard fallback is colored", next+1+i)
		}
	}
	if res.Fallbacks == 0 {
		t.Fatalf("no fallbacks recorded: %+v", res)
	}

	// Correctness: the mutation costs throughput, never commits.
	checkChainsDrained(t, e, tasks, total, repeats)
}

// TestRunColoredUnkeyedStaysSpeculative: tasks that do not declare a
// footprint can be driven in ModeColored, and the drive is a round
// drive: no coloring, and the same samples as ModeRound on the same
// tasks.
func TestRunColoredUnkeyedStaysSpeculative(t *testing.T) {
	drive := func(mode Mode) (driven, int64) {
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
		res := driveAll(context.Background(), e, testHybrid(0.25), Options{Mode: mode})
		if e.Pending() != 0 {
			t.Fatalf("%s: pending %d after drain", mode, e.Pending())
		}
		return res, runs.Load()
	}
	res, runs := drive(ModeColored)
	if res.ColoredRounds != 0 || res.Colorings != 0 || res.SpecRounds != res.Samples {
		t.Fatalf("undeclared drive entered the colored phase: %+v", res.Result)
	}
	if runs != 16*5 {
		t.Fatalf("ran %d attempts, want %d", runs, 16*5)
	}
	rounds, _ := drive(ModeRound)
	if len(rounds.Trajectory) != len(res.Trajectory) {
		t.Fatalf("colored drive took %d samples, round drive %d", len(res.Trajectory), len(rounds.Trajectory))
	}
	for i, s := range res.Trajectory {
		if r := rounds.Trajectory[i]; s.M != r.M || s.Committed != r.Committed || s.R != r.R {
			t.Fatalf("sample %d: colored %+v, round %+v", i, s, r)
		}
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

// TestRunColoredDeclaredStartsColored: Footprinted tasks never run a
// speculative round — the first sample is a colored super-round and
// every commit is colored.
func TestRunColoredDeclaredStartsColored(t *testing.T) {
	const repeats = 12
	e, tasks, total := buildStableFixture(graph.Grid2D(8, 8), repeats, 4, 7)
	defer e.Close()
	res := driveAll(context.Background(), e, testHybrid(0.25), Options{Mode: ModeColored})
	checkChainsDrained(t, e, tasks, total, repeats)
	if res.SpecRounds != 0 || res.ColoredRounds != repeats || res.Colorings != 1 || res.Fallbacks != 0 {
		t.Fatalf("want %d colored super-rounds from one declared coloring and nothing else: %+v", repeats, res.Result)
	}
	if res.ColoredCommits != res.Committed || res.ColoredAborts != 0 {
		t.Fatalf("declared drive committed outside colored rounds: %+v", res.Result)
	}
}

// TestRunColoredCollidingLie is Fig. 1 under a lie: two tasks of one
// color class both acquire an item neither declared. The class's walk
// commits the earlier of the two and aborts the later, whatever the
// participant count, and the super-round trips hard; the loser commits
// in the rounds that follow.
func TestRunColoredCollidingLie(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("MaxParallel=%d", par), func(t *testing.T) {
			e := NewExecutor(nil)
			e.MaxParallel = par
			defer e.Close()
			undeclared := NewItem(99)
			commits := make([]int, 4) // commit actions run serially
			for k := range commits {
				task := &stableChainTask{key: int64(k), items: []*Item{NewItem(int64(k))}}
				task.commitFn = func() { commits[k]++ }
				if k < 2 {
					task.extra = func() *Item { return undeclared }
				}
				e.Add(task)
			}
			var first []int
			res := driveAll(context.Background(), e, testHybrid(0.25), Options{Mode: ModeColored,
				OnRound: func(s Sample) {
					if s.Index == 0 {
						first = slices.Clone(commits)
					}
				},
			})
			s := res.Trajectory[0]
			if !s.Colored || !s.Fallback || s.Colors != 1 || s.Launched != 4 || s.Committed != 3 || s.Aborted != 1 {
				t.Fatalf("first sample %+v, want one colored class of 4 that committed 3 and tripped", s)
			}
			if !slices.Equal(first, []int{1, 0, 1, 1}) {
				t.Fatalf("the super-round committed %v per task, want the earlier collider and not the later", first)
			}
			if res.Colorings != 1 || res.Fallbacks != 1 || res.SpecRounds != res.Samples-1 {
				t.Fatalf("want the one hard fallback, then rounds to the end: %+v", res.Result)
			}
			if !slices.Equal(commits, []int{1, 1, 1, 1}) || e.Pending() != 0 {
				t.Fatalf("commits %v, pending %d: want every task once", commits, e.Pending())
			}
		})
	}
}

// TestRunColoredLyingDeclaration: the first chain and a chain of its
// color class both acquire one item beyond what they declared, on every
// run. The first super-round's walk aborts the later of the two and trips
// a hard fallback; the drive never declares again, finishes in rounds and
// still commits every task exactly once per step.
func TestRunColoredLyingDeclaration(t *testing.T) {
	const repeats = 40
	e, tasks, total := buildStableFixture(graph.Grid2D(8, 8), repeats, 4, 11)
	defer e.Close()
	extra := NewItem(1 << 40)
	tasks[0].extra = func() *Item { return extra }
	classmate(t, e, tasks).extra = tasks[0].extra

	res := driveAll(context.Background(), e, testHybrid(0.25), Options{Mode: ModeColored})
	checkChainsDrained(t, e, tasks, total, repeats)
	first := res.Trajectory[0]
	if !first.Colored || !first.Fallback || first.Committed != len(tasks)-1 || first.Aborted != 1 {
		t.Fatalf("first sample %+v, want a colored super-round that aborted one collider and tripped", first)
	}
	for _, s := range res.Trajectory[1:] {
		if s.Colored {
			t.Fatalf("sample %d is colored: the drive declared again after the declarations lied", s.Index)
		}
	}
	if res.Colorings != 1 || res.Fallbacks != 1 || res.SpecRounds != res.Samples-1 || res.SpecRounds == 0 {
		t.Fatalf("want the one hard fallback, then rounds to the end: %+v", res.Result)
	}
}

// TestColoredCatchesSeqAlias: an alias that carries a declared Seq is a
// different item. The first chain acquires, beyond its declaration, an
// item tagged with the Seq of an item its classmate declared and
// acquires. The walk compares items, not tags, so the two do not collide:
// nothing aborts, nothing trips, and the whole drain runs colored.
func TestColoredCatchesSeqAlias(t *testing.T) {
	const repeats = 40
	e, tasks, total := buildStableFixture(graph.Grid2D(8, 8), repeats, 4, 11)
	defer e.Close()
	alias := NewItem(classmate(t, e, tasks).items[0].Seq)
	tasks[0].extra = func() *Item { return alias }

	res := driveAll(context.Background(), e, testHybrid(0.25), Options{Mode: ModeColored})
	checkChainsDrained(t, e, tasks, total, repeats)
	if res.Fallbacks != 0 || res.SpecRounds != 0 || res.ColoredAborts != 0 || res.ColoredCommits != res.Committed {
		t.Fatalf("a Seq alias collided: %+v", res.Result)
	}
}

// TestRunColoredRedeclaresOnce: new Footprinted work the declarations
// did not cover is a soft trip; the drive declares again from the
// pending set, once, and finishes in rounds after a second soft trip.
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
		return t
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
	// unknown), then rounds only.
	if len(shape) < 3 || !shape[0] || !shape[1] || slices.Contains(shape[2:], true) {
		t.Fatalf("colored samples %v, want exactly the first two", shape)
	}
	if res.Fallbacks != 2 || res.Colorings != 2 || res.SpecRounds != len(shape)-2 {
		t.Fatalf("want two declared colorings, both tripped softly, then rounds: %+v", res.Result)
	}
}

// TestDeclareRefuses pins the three refusals: a pending task that cannot
// declare, two live tasks with one key, an item over the holder bound —
// where a key naming the item twice is one holder. Each leaves the
// work-set as it found it.
func TestDeclareRefuses(t *testing.T) {
	noop := TaskFunc(func(*Ctx) error { return nil })
	declared := func(key int64, items ...*Item) Task {
		return &stableChainTask{key: key, items: items}
	}
	shared := NewItem(7)
	var crowd, twice []Task
	for k := 0; k <= maxDeclaredHolders; k++ {
		crowd = append(crowd, declared(int64(k), shared))
		twice = append(twice, declared(int64(k), shared, shared))
	}
	for _, tc := range []struct {
		name  string
		tasks []Task
		ok    bool
	}{
		{"undeclared", []Task{declared(1, NewItem(1)), noop}, false},
		{"shared key", []Task{declared(1, NewItem(1)), declared(1, NewItem(2))}, false},
		{"crowded item", crowd, false},
		{"item at the bound", crowd[1:], true},
		{"item named twice at the bound", twice[1:], true},
	} {
		e := NewExecutor(nil)
		for _, task := range tc.tasks {
			e.Add(task)
		}
		var cs coloredState
		if cg := e.declare(&cs); (cg != nil) != tc.ok {
			t.Errorf("%s: declare returned %v", tc.name, cg)
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
	e, tasks, total := buildStableFixture(graph.Grid2D(10, 10), 1, 2, 5)
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
