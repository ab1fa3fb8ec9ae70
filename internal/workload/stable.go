package workload

import (
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/speculation"
)

// The synthetic "stable" workload: a stable-conflict chain workload
// built for the colored execution mode. One task per node of a random
// conflict graph commits stableRepeats times, respawning itself after
// each commit; it declares its footprint — the node's item plus the
// incident edge items — which never changes, so a colored drive colors
// the declared graph once and runs every super-round lock-free. The
// chain counters are atomics and the commit actions touch nothing else,
// so the workload is also safe to drive barrier-free (CapAsync).

// stableRepeats is how many times each chain task commits before it
// stops respawning: the number of colored super-rounds a drain takes.
const stableRepeats = 24

// stableTask is one respawning chain with a fixed conflict footprint.
type stableTask struct {
	key      int64
	items    []*speculation.Item
	left     atomic.Int64
	commitFn func() // bound once at construction: no per-run closure
}

// ConflictKey implements speculation.Footprinted.
func (t *stableTask) ConflictKey() int64 { return t.key }

// Footprint implements speculation.Footprinted: the items never change,
// so one coloring serves the whole drain.
func (t *stableTask) Footprint() []*speculation.Item { return t.items }

func (t *stableTask) Run(ctx *speculation.Ctx) error {
	if err := ctx.AcquireAll(t.items...); err != nil {
		return err
	}
	if t.left.Load() > 1 {
		ctx.Spawn(t)
	}
	ctx.OnCommit(t.commitFn)
	return nil
}

// newStable builds the stable-conflict workload: Size chains over a
// random conflict graph of average degree Degree (default 8).
func newStable(p Params) (*Run, error) {
	r := rng.New(p.Seed)
	g := graph.RandomWithAvgDegree(r, p.Size, degree("stable", p))
	e, err := seededExecutor(r.Split(), p)
	if err != nil {
		return nil, err
	}

	nodes := g.Nodes()
	fps := speculation.GraphFootprints(g)

	total := new(atomic.Int64)
	tasks := make([]*stableTask, 0, len(nodes))
	for _, v := range nodes {
		t := &stableTask{key: int64(v), items: fps[v]}
		t.left.Store(stableRepeats)
		tt := t
		t.commitFn = func() {
			tt.left.Add(-1)
			total.Add(1)
		}
		tasks = append(tasks, t)
		e.Add(t)
	}

	return stdRun("stable", e, p, func() (string, error) {
		want := int64(len(tasks)) * stableRepeats
		if got := total.Load(); got != want {
			return "", fmt.Errorf("committed %d chain steps, want %d", got, want)
		}
		for _, t := range tasks {
			if l := t.left.Load(); l != 0 {
				return "", fmt.Errorf("chain %d has %d steps left", t.key, l)
			}
		}
		return fmt.Sprintf("chains=%d steps=%d (all chains drained exactly)",
			len(tasks), total.Load()), nil
	})
}
