package speculation

import (
	"testing"

	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/rng"
)

// selectionPolicies are the two work-set selection policies the executor
// has: the model's uniform draw (a seeded pick) and the built-in LIFO
// (pick == nil).
var selectionPolicies = []struct {
	name string
	mk   func() *Executor
}{
	{"random", func() *Executor { return NewExecutor(rng.New(1).Intn) }},
	{"lifo", func() *Executor { return NewExecutor(nil) }},
}

func TestExecutorWithWorksetDrains(t *testing.T) {
	for _, tc := range selectionPolicies {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk()
			it := NewItem(0)
			for i := 0; i < 50; i++ {
				e.Add(TaskFunc(func(ctx *Ctx) error { return ctx.Acquire(it) }))
			}
			rounds := 0
			for e.Pending() > 0 {
				e.Round(8)
				rounds++
				if rounds > 10000 {
					t.Fatal("did not drain")
				}
			}
			if e.TotalCommitted() != 50 {
				t.Fatalf("committed %d", e.TotalCommitted())
			}
		})
	}
}

func TestExecutorWithWorksetSpawns(t *testing.T) {
	for _, tc := range selectionPolicies {
		e := tc.mk()
		depth := 0
		var mk func(level int) Task
		mk = func(level int) Task {
			return TaskFunc(func(ctx *Ctx) error {
				if level > depth {
					depth = level
				}
				if level < 5 {
					ctx.Spawn(mk(level + 1))
				}
				return nil
			})
		}
		e.Add(mk(1))
		for e.Pending() > 0 {
			e.Round(4)
		}
		if depth != 5 {
			t.Fatalf("%s: spawn chain depth %d, want 5", tc.name, depth)
		}
	}
}

// Selection policy materially changes conflict behavior: on a CC graph
// made of cliques, LIFO processes clique members back-to-back (high
// conflicts) while random selection spreads them out. We verify the
// policies at least produce valid executions with identical total work.
func TestWorksetPoliciesOnGraphWorkload(t *testing.T) {
	for _, tc := range selectionPolicies {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.CliqueUnion(120, 5)
			wl := NewGraphWorkload(g)
			e := tc.mk()
			wl.Populate(e)
			res := RunAdaptive(e, control.Fixed{Procs: 12}, 100000)
			if g.NumNodes() != 0 {
				t.Fatalf("%d nodes left", g.NumNodes())
			}
			if e.TotalCommitted() != 120 {
				t.Fatalf("committed %d", e.TotalCommitted())
			}
			if res.Rounds == 0 {
				t.Fatal("no rounds")
			}
		})
	}
}
