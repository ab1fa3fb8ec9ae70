package speculation

import (
	"context"
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestGraphWorkloadDrains(t *testing.T) {
	r := rng.New(1)
	g := graph.RandomGNM(r, 200, 600)
	wl := NewGraphWorkload(g)
	e := NewGraphExecutor(wl, r.Split())
	rounds := 0
	for e.Pending() > 0 {
		e.Round(16)
		rounds++
		if rounds > 5000 {
			t.Fatal("workload did not drain")
		}
	}
	if wl.Graph().NumNodes() != 0 {
		t.Fatalf("%d nodes survive", wl.Graph().NumNodes())
	}
	if e.TotalCommitted() != 200 {
		t.Fatalf("committed %d, want 200", e.TotalCommitted())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGraphWorkloadAdjacentConflict(t *testing.T) {
	// Two adjacent nodes launched together: exactly one commits.
	oneCommits := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		g := graph.Path(2)
		wl := NewGraphWorkload(g)
		e := NewExecutor(nil)
		wl.Populate(e)
		st := e.Round(2)
		if st.Committed == 1 && st.Aborted == 1 {
			oneCommits++
		}
	}
	if oneCommits != trials {
		t.Fatalf("adjacent pair committed together in %d/%d trials", trials-oneCommits, trials)
	}
}

func TestGraphWorkloadIndependentNoConflict(t *testing.T) {
	for i := 0; i < 30; i++ {
		g := graph.Empty(8)
		wl := NewGraphWorkload(g)
		e := NewExecutor(nil)
		wl.Populate(e)
		st := e.Round(8)
		if st.Aborted != 0 || st.Committed != 8 {
			t.Fatalf("independent tasks conflicted: %+v", st)
		}
	}
}

// The runtime's measured conflict ratio on a clique union must agree
// with the model's closed form (Thm. 3) — the end-to-end fidelity check
// tying goroutine execution back to the paper's mathematics.
func TestRuntimeConflictRatioMatchesModel(t *testing.T) {
	const n, d, m = 120, 5, 30
	want := analytic.WorstCaseConflictRatio(n, d, m) // n divisible by d+1: exact
	r := rng.New(8)
	total, launched := 0, 0
	const trials = 300
	for i := 0; i < trials; i++ {
		g := graph.CliqueUnion(n, d)
		wl := NewGraphWorkload(g)
		e := NewGraphExecutor(wl, r.Split())
		st := e.Round(m) // one round on the fresh graph
		total += st.Aborted
		launched += st.Launched
	}
	got := float64(total) / float64(launched)
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("runtime ratio %v vs model %v", got, want)
	}
}

func TestRunAdaptiveDrainsAndTracks(t *testing.T) {
	r := rng.New(2)
	g := graph.RandomWithAvgDegree(r, 800, 10)
	wl := NewGraphWorkload(g)
	e := NewGraphExecutor(wl, r.Split())
	h := control.NewHybrid(control.DefaultHybridConfig(0.25))
	res := RunAdaptive(e, h, 100000)
	if e.Pending() != 0 {
		t.Fatal("adaptive run did not drain")
	}
	totalCommitted := 0
	for _, c := range res.Committed {
		totalCommitted += c
	}
	if totalCommitted != 800 {
		t.Fatalf("committed %d, want 800", totalCommitted)
	}
	if res.Rounds != len(res.M) || res.Rounds != len(res.R) {
		t.Fatal("trajectory misrecorded")
	}
	if res.MeanConflictRatio() < 0 || res.MeanConflictRatio() >= 1 {
		t.Fatalf("mean ratio %v", res.MeanConflictRatio())
	}
}

// TestRunGraphEndToEnd executes a whole CC graph as speculative tasks
// under Algorithm 1: the model-to-runtime pipeline the paper's §5
// anticipates ("integration in the Galois system").
func TestRunGraphEndToEnd(t *testing.T) {
	g := graph.RandomWithAvgDegree(rng.New(6), 400, 10)
	e := NewGraphExecutor(NewGraphWorkload(g), rng.New(7))
	defer e.Close()
	res := RunAdaptive(e, control.NewHybrid(control.DefaultHybridConfig(0.25)), 100000)
	if g.NumNodes() != 0 {
		t.Fatalf("%d nodes left", g.NumNodes())
	}
	total := 0
	for _, c := range res.Committed {
		total += c
	}
	if total != 400 {
		t.Fatalf("committed %d, want 400", total)
	}
}

func TestStaleRetryIsNoop(t *testing.T) {
	// A task whose node was already removed must commit as a no-op
	// rather than panic or double-remove.
	g := graph.Empty(1)
	wl := NewGraphWorkload(g)
	task := wl.TaskFor(0)
	e := NewExecutor(nil)
	e.Add(task)
	e.Add(task) // same node twice: second execution sees it gone
	st := e.Round(1)
	if st.Committed != 1 {
		t.Fatalf("first run: %+v", st)
	}
	st = e.Round(1)
	if st.Committed != 1 || st.Aborted != 0 {
		t.Fatalf("stale retry: %+v", st)
	}
	if g.NumNodes() != 0 {
		t.Fatal("node not removed")
	}
}

func TestMeanConflictRatioEmpty(t *testing.T) {
	res := &AdaptiveResult{}
	if res.MeanConflictRatio() != 0 {
		t.Fatal("empty run should have ratio 0")
	}
}

// footprintOf reads a registered node's current footprint.
func footprintOf(wl *GraphWorkload, v int) []*Item { return *wl.nodes[v].fp.Load() }

// sharedItems returns the items two footprints have in common.
func sharedItems(a, b []*Item) []*Item {
	var out []*Item
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
			}
		}
	}
	return out
}

// Paper Fig. 1 at the runtime: whatever a round commits is an
// independent set of the CC graph as it stood before the round, and
// every launched task either commits or aborts.
func TestGraphWorkloadRoundsCommitIndependentSets(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		g := graph.RandomWithAvgDegree(r, 300, 12)
		wl := NewGraphWorkload(g)
		e := NewGraphExecutor(wl, r.Split())
		e.MaxParallel = 4
		for round := 0; e.Pending() > 0; round++ {
			if round > 5000 {
				t.Fatal("workload did not drain")
			}
			before := g.Clone()
			st := e.Round(40)
			if st.Committed+st.Aborted != st.Launched || st.Failed != 0 {
				t.Fatalf("seed %d round %d: %+v does not add up", seed, round, st)
			}
			var removed []int
			for _, v := range before.Nodes() {
				if !g.Has(v) {
					removed = append(removed, v)
				}
			}
			if len(removed) != st.Committed {
				t.Fatalf("seed %d round %d: %d commits removed %d nodes", seed, round, st.Committed, len(removed))
			}
			if !graph.IsIndependentSet(before, removed) {
				t.Fatalf("seed %d round %d: committed nodes %v are not independent", seed, round, removed)
			}
		}
		e.Close()
	}
}

// A footprint is the node's item plus one item per edge incident at
// registration, and the two endpoints of an edge hold the same *Item —
// nothing else is shared.
func TestGraphWorkloadFootprints(t *testing.T) {
	g := graph.RandomWithAvgDegree(rng.New(5), 80, 6)
	g.RemoveNode(7) // sparse IDs: registration must not assume 0..n-1
	wl := NewGraphWorkload(g)
	for _, v := range g.Nodes() {
		fp := footprintOf(wl, v)
		if len(fp) != 1+g.Degree(v) {
			t.Fatalf("node %d: footprint %d items, degree %d", v, len(fp), g.Degree(v))
		}
		if fp[0].Seq != int64(v) {
			t.Fatalf("node %d: first item is %d, want the node item", v, fp[0].Seq)
		}
		for _, u := range g.Nodes() {
			if u == v {
				continue
			}
			want := 0
			if g.HasEdge(u, v) {
				want = 1
			}
			if got := len(sharedItems(fp, footprintOf(wl, u))); got != want {
				t.Fatalf("nodes %d,%d (adjacent=%v) share %d items", v, u, want == 1, got)
			}
		}
	}
}

// Regrowth: a node a commit hook adds (edges first, then TaskFor)
// genuinely conflicts with a surviving neighbor launched in the same
// later round — the survivor's footprint was extended with the new
// edge's item.
func TestGraphWorkloadRegrownNodeConflicts(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		g := graph.Empty(2) // 0 and 1 survive round one, unlaunched
		wl := NewGraphWorkload(g)
		e := NewExecutor(nil)
		added := -1
		e.Add(TaskFunc(func(ctx *Ctx) error {
			ctx.OnCommit(func() {
				added = g.AddNode()
				g.AddEdge(0, added)
				e.Add(wl.TaskFor(added))
			})
			return nil
		}))
		if st := e.Round(1); st.Committed != 1 || added < 0 {
			t.Fatalf("trigger round: %+v", st)
		}
		if fp := footprintOf(wl, added); len(fp) != 2 || len(sharedItems(fp, footprintOf(wl, 0))) != 1 {
			t.Fatalf("new node's footprint %d items, shares %d with its neighbor",
				len(fp), len(sharedItems(fp, footprintOf(wl, 0))))
		}
		if len(footprintOf(wl, 1)) != 1 {
			t.Fatal("a non-neighbor's footprint changed")
		}
		e.Add(wl.TaskFor(0))
		e.Add(wl.TaskFor(1))
		st := e.Round(3)
		if st.Committed != 2 || st.Aborted != 1 {
			t.Fatalf("trial %d: new node and its neighbor launched together: %+v, want 2 commits (one of the pair, plus node 1) and 1 abort", trial, st)
		}
		if g.Has(0) == g.Has(added) {
			t.Fatalf("trial %d: both or neither of the adjacent pair committed", trial)
		}
	}
}

// The task body holds no lock, so under the barrier-free drive a commit
// hook registers new nodes (and swaps neighbors' footprints) while
// workers are mid-acquire on them. Run under -race.
func TestGraphWorkloadAsyncRegrowth(t *testing.T) {
	r := rng.New(9)
	g := graph.RandomWithAvgDegree(r, 200, 8)
	wl := NewGraphWorkload(g)
	e := NewGraphExecutor(wl, r.Split())
	budget := 300
	var regrow func() Task
	regrow = func() Task {
		return TaskFunc(func(ctx *Ctx) error {
			// Commit actions run one at a time, so budget and r need no lock.
			ctx.OnCommit(func() {
				if budget <= 0 {
					return
				}
				budget--
				v := g.AddNode()
				nodes := g.Nodes()
				for i := 0; i < 8; i++ {
					if u := nodes[r.Intn(len(nodes))]; u != v {
						g.AddEdge(u, v)
					}
				}
				e.Add(wl.TaskFor(v))
				e.Add(regrow())
			})
			return nil
		})
	}
	for i := 0; i < 20; i++ {
		e.Add(regrow())
	}
	driveAll(context.Background(), e, control.NewHybrid(control.DefaultHybridConfig(0.25)), Options{Mode: ModeAsync})
	if e.Pending() != 0 {
		t.Fatalf("the drive returned with %d tasks pending", e.Pending())
	}
	if budget != 0 || g.NumNodes() != 0 {
		t.Fatalf("budget %d left, %d nodes survive", budget, g.NumNodes())
	}
	if got := e.TotalCommitted(); got != 200+300+20+300 {
		t.Fatalf("committed %d, want every node and every trigger once", got)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
