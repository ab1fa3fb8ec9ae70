package cluster

import (
	"sort"
	"sync"

	"repro/internal/control"
	"repro/internal/speculation"
)

// SpeculativeClustering runs agglomerative clustering on the optimistic
// runtime. Each live cluster owns at most one pending task; a task
// checks the mutual-nearest-neighbor condition and, when it holds,
// speculatively locks both clusters and merges at commit time. Merges
// sharing a cluster conflict — the amorphous data-parallelism the paper
// attributes to agglomerative clustering.
//
// Cluster IDs grow monotonically, so abstract locks are kept in a map
// guarded by the structural mutex.
type SpeculativeClustering struct {
	mu      sync.Mutex
	c       *Clustering
	target  int
	items   map[int]*speculation.Item
	hasTask map[int]bool
	exec    *speculation.Executor
	initial int
}

// NewSpeculative wraps clustering c (owned afterwards), stopping when
// target clusters remain. pick selects pending-task indices (nil = LIFO).
func NewSpeculative(c *Clustering, target int, pick func(n int) int) *SpeculativeClustering {
	if target < 1 {
		target = 1
	}
	s := &SpeculativeClustering{
		c:       c,
		target:  target,
		items:   make(map[int]*speculation.Item),
		hasTask: make(map[int]bool),
		exec:    speculation.NewExecutor(pick),
		initial: c.NumClusters(),
	}
	s.Reseed()
	return s
}

// Clustering exposes the underlying clustering state.
func (s *SpeculativeClustering) Clustering() *Clustering { return s.c }

// Executor exposes the underlying speculative executor.
func (s *SpeculativeClustering) Executor() *speculation.Executor { return s.exec }

// Pending returns the number of queued cluster tasks.
func (s *SpeculativeClustering) Pending() int { return s.exec.Pending() }

func (s *SpeculativeClustering) itemFor(id int) *speculation.Item {
	if it, ok := s.items[id]; ok {
		return it
	}
	it := speculation.NewItem(int64(id))
	s.items[id] = it
	return it
}

// ensureTask queues a task for cluster id if none is pending. Caller
// must hold s.mu; spawning happens outside via the returned flag.
func (s *SpeculativeClustering) ensureTaskLocked(id int) bool {
	if s.hasTask[id] {
		return false
	}
	s.hasTask[id] = true
	return true
}

// Reseed enqueues a task for every live cluster that lacks one, in
// cluster-id order so that task handles — and with them every seeded
// pick — do not depend on the live slice's order. It restarts stalled
// nearest-neighbor chains (the driver calls it between adaptive runs
// until the target is reached).
func (s *SpeculativeClustering) Reseed() int {
	s.mu.Lock()
	var spawn []int
	for _, cl := range s.c.live {
		if s.ensureTaskLocked(cl.ID) {
			spawn = append(spawn, cl.ID)
		}
	}
	s.mu.Unlock()
	sort.Ints(spawn)
	for _, id := range spawn {
		s.exec.Add(s.taskFor(id))
	}
	return len(spawn)
}

// taskFor builds the speculative merge task for cluster x, keyed by
// the cluster so the colored-mode learner can track it across retries.
func (s *SpeculativeClustering) taskFor(x int) speculation.Task {
	return speculation.Keyed(int64(x), speculation.TaskFunc(func(ctx *speculation.Ctx) error {
		s.mu.Lock()
		if s.c.Get(x) == nil || s.c.NumClusters() <= s.target {
			delete(s.hasTask, x)
			s.mu.Unlock()
			return nil // stale or done: consume silently
		}
		y, _, ok := s.c.Nearest(x)
		if !ok {
			delete(s.hasTask, x)
			s.mu.Unlock()
			return nil
		}
		z, _, _ := s.c.Nearest(y)
		if z != x {
			// Not mutual: walk the nearest-neighbor chain by handing
			// the baton to y (chains end in a mutual 2-cycle).
			delete(s.hasTask, x)
			spawnY := s.ensureTaskLocked(y)
			s.mu.Unlock()
			if spawnY {
				s.exec.Add(s.taskFor(y))
			}
			return nil
		}
		ix, iy := s.itemFor(x), s.itemFor(y)
		s.mu.Unlock()

		// Mutual nearest neighbors: race for both clusters.
		if err := ctx.AcquireAll(ix, iy); err != nil {
			return err
		}
		ctx.OnCommit(func() { s.commitMerge(x, y) })
		return nil
	}))
}

// commitMerge fuses x and y (serial commit phase).
func (s *SpeculativeClustering) commitMerge(x, y int) {
	s.mu.Lock()
	delete(s.hasTask, x)
	var spawn []int
	if s.c.Get(x) != nil && s.c.Get(y) != nil && s.c.NumClusters() > s.target {
		p := s.c.MergePair(x, y)
		delete(s.items, x)
		delete(s.items, y)
		if s.ensureTaskLocked(p) {
			spawn = append(spawn, p)
		}
	}
	s.mu.Unlock()
	for _, id := range spawn {
		s.exec.Add(s.taskFor(id))
	}
}

// Run agglomerates under controller c until target clusters remain (or
// maxRounds elapse), reseeding stalled chains between adaptive runs. It
// returns the concatenated adaptive trajectory.
func (s *SpeculativeClustering) Run(ctrl control.Controller, maxRounds int) *speculation.AdaptiveResult {
	total := &speculation.AdaptiveResult{Controller: ctrl.Name()}
	for total.Rounds < maxRounds {
		res := speculation.RunAdaptive(s.exec, ctrl, maxRounds-total.Rounds)
		total.M = append(total.M, res.M...)
		total.R = append(total.R, res.R...)
		total.Committed = append(total.Committed, res.Committed...)
		total.Rounds += res.Rounds
		total.UsefulWork += res.UsefulWork
		total.WastedWork += res.WastedWork
		total.ProcRounds += res.ProcRounds
		s.mu.Lock()
		done := s.c.NumClusters() <= s.target
		s.mu.Unlock()
		if done {
			break
		}
		if s.Reseed() == 0 {
			break // nothing left to try
		}
	}
	return total
}
