package cluster

import (
	"sort"
	"sync"

	"repro/internal/speculation"
)

// SpeculativeClustering runs agglomerative clustering on the optimistic
// runtime. Each live cluster owns at most one pending task; a task
// checks the mutual-nearest-neighbor condition and, when it holds,
// speculatively acquires both clusters and merges at commit time. Merges
// sharing a cluster conflict — the amorphous data-parallelism the paper
// attributes to agglomerative clustering.
//
// Cluster IDs grow monotonically, so abstract items are kept in a map
// guarded by the structural mutex. Every other write — the merge and the
// nearest-neighbor chain's hand-off — is a commit action.
type SpeculativeClustering struct {
	mu      sync.Mutex
	c       *Clustering
	target  int
	items   map[int]*speculation.Item
	hasTask map[int]bool
	exec    *speculation.Executor
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
	}
	s.seed()
	return s
}

// Executor exposes the underlying speculative executor.
func (s *SpeculativeClustering) Executor() *speculation.Executor { return s.exec }

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

// seed enqueues one task per live cluster, in cluster-id order so that
// task handles — and with them every seeded pick — do not depend on the
// live slice's order. Chains never stall afterwards: a task that hands
// the baton on queues its successor, and a merge queues its parent.
func (s *SpeculativeClustering) seed() {
	ids := make([]int, 0, len(s.c.live))
	for _, cl := range s.c.live {
		ids = append(ids, cl.ID)
	}
	sort.Ints(ids)
	for _, id := range ids {
		s.hasTask[id] = true
		s.exec.Add(s.taskFor(id))
	}
}

// taskFor builds the speculative merge task for cluster x.
func (s *SpeculativeClustering) taskFor(x int) speculation.Task {
	return speculation.TaskFunc(func(ctx *speculation.Ctx) error {
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
			s.mu.Unlock()
			// Not mutual: walk the nearest-neighbor chain by handing
			// the baton to y (chains end in a mutual 2-cycle). Whether y
			// needs a task depends on the round's other commits, so the
			// hand-off is a commit action too.
			ctx.OnCommit(func() { s.handOff(x, y) })
			return nil
		}
		ix, iy := s.itemFor(x), s.itemFor(y)
		s.mu.Unlock()

		// Mutual nearest neighbors: claim both clusters.
		if err := ctx.AcquireAll(ix, iy); err != nil {
			return err
		}
		ctx.OnCommit(func() { s.commitMerge(x, y) })
		return nil
	})
}

// handOff retires x's task and queues one for y unless y has one
// (serial commit phase).
func (s *SpeculativeClustering) handOff(x, y int) {
	s.mu.Lock()
	delete(s.hasTask, x)
	spawnY := s.ensureTaskLocked(y)
	s.mu.Unlock()
	if spawnY {
		s.exec.Add(s.taskFor(y))
	}
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
