package speculation

import (
	"sync/atomic"
	"testing"

	"repro/internal/control"
)

func TestForEachProcessesAllItems(t *testing.T) {
	var sum atomic.Int64
	items := make([]int, 100)
	for i := range items {
		items[i] = i + 1
	}
	res := ForEach(items, func(item int, ctx *Ctx) error {
		sum.Add(int64(item))
		return nil
	}, control.NewHybrid(control.DefaultHybridConfig(0.25)), 100000)
	if sum.Load() != 5050 {
		t.Fatalf("sum = %d, want 5050", sum.Load())
	}
	if res.UsefulWork != 100 {
		t.Fatalf("useful work %d", res.UsefulWork)
	}
}

func TestForEachConflictsRetried(t *testing.T) {
	// All items contend on one lock: each must still execute exactly
	// once (committed), with retries counted as waste.
	it := NewItem(0)
	var commits atomic.Int64
	items := make([]int, 40)
	res := ForEach(items, func(_ int, ctx *Ctx) error {
		if err := ctx.Acquire(it); err != nil {
			return err
		}
		ctx.OnCommit(func() { commits.Add(1) })
		return nil
	}, control.Fixed{Procs: 8}, 100000)
	if commits.Load() != 40 {
		t.Fatalf("commits = %d", commits.Load())
	}
	if res.WastedWork == 0 {
		t.Fatal("expected conflicts at m=8 on one lock")
	}
}

func TestLoopPushDuringExecution(t *testing.T) {
	// Work that generates work: each item below 3 levels pushes two
	// children on commit. 1 + 2 + 4 + 8 = 15 items total.
	type node struct{ level int }
	var loop *Loop[node]
	var processed atomic.Int64
	loop = NewLoop(func(n node, ctx *Ctx) error {
		processed.Add(1)
		if n.level < 3 {
			ctx.OnCommit(func() {
				loop.Push(node{n.level + 1})
				loop.Push(node{n.level + 1})
			})
		}
		return nil
	})
	loop.Push(node{0})
	res := loop.Run(control.NewHybrid(control.DefaultHybridConfig(0.25)), 100000)
	if processed.Load() != 15 {
		t.Fatalf("processed %d items, want 15", processed.Load())
	}
	if loop.exec.Pending() != 0 {
		t.Fatal("loop not drained")
	}
	if res.UsefulWork != 15 {
		t.Fatalf("useful work %d", res.UsefulWork)
	}
}
