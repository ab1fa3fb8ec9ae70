package maxflow

import (
	"sync"

	"repro/internal/speculation"
)

// SpeculativePR runs preflow-push on the optimistic runtime: each active
// node is a discharge task that acquires its residual neighborhood
// ({u} ∪ N(u)); overlapping neighborhoods conflict. Asynchronous
// push–relabel is correct under any serialization of atomic discharges,
// so the committed (neighborhood-disjoint) discharges of a round
// compose safely.
type SpeculativePR struct {
	mu      sync.Mutex
	st      *prState
	items   []*speculation.Item
	hasTask []bool // indexed by node: u has a discharge task pending
	exec    *speculation.Executor
}

// NewSpeculativePR prepares the workload: the source is saturated and
// the initially active nodes enter the work-set. pick selects
// pending-task indices (nil = LIFO).
func NewSpeculativePR(net *Network, src, sink int, pick func(n int) int) *SpeculativePR {
	s := &SpeculativePR{
		st:      newPRState(net, src, sink),
		items:   make([]*speculation.Item, net.N),
		hasTask: make([]bool, net.N),
		exec:    speculation.NewExecutor(pick),
	}
	for i := range s.items {
		s.items[i] = speculation.NewItem(int64(i))
	}
	for _, v := range s.st.saturateSource() {
		s.hasTask[v] = true
		s.exec.Add(s.taskFor(v))
	}
	return s
}

// Executor exposes the underlying executor.
func (s *SpeculativePR) Executor() *speculation.Executor { return s.exec }

// FlowValue returns the flow that has reached the sink so far (the max
// flow once the work-set drains).
func (s *SpeculativePR) FlowValue() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.excess[s.st.sink]
}

// taskFor builds the speculative discharge task for node u.
func (s *SpeculativePR) taskFor(u int) speculation.Task {
	return speculation.TaskFunc(func(ctx *speculation.Ctx) error {
		s.mu.Lock()
		if !s.st.active(u) {
			s.hasTask[u] = false
			s.mu.Unlock()
			return nil // stale: excess already drained elsewhere
		}
		s.mu.Unlock()

		// Cautious lock phase over the static residual neighborhood.
		if err := ctx.Acquire(s.items[u]); err != nil {
			return err
		}
		for i := range s.st.net.adj[u] {
			if err := ctx.Acquire(s.items[s.st.net.adj[u][i].To]); err != nil {
				return err
			}
		}
		ctx.OnCommit(func() { s.commitDischarge(u) })
		return nil
	})
}

// commitDischarge performs the actual discharge (serial commit phase),
// requeues the activated nodes, and runs a global relabel when one is
// due. Commit actions run one at a time after the round's barrier with
// every item lock released, so the relabel falls between two discharges
// as in the sequential algorithm and needs no lock of its own.
func (s *SpeculativePR) commitDischarge(u int) {
	s.mu.Lock()
	s.hasTask[u] = false
	var spawn []int
	if s.st.active(u) {
		for _, v := range s.st.discharge(u) {
			if !s.hasTask[v] {
				s.hasTask[v] = true
				spawn = append(spawn, v)
			}
		}
		s.st.relabelIfDue()
	}
	s.mu.Unlock()
	for _, v := range spawn {
		s.exec.Add(s.taskFor(v))
	}
}
