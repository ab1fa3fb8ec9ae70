package sp

import (
	"sync"

	"repro/internal/speculation"
)

// SpeculativeSP runs survey propagation as an event-driven irregular
// worklist on the optimistic runtime: each pending clause update is a
// speculative task that acquires the clause's variables; clauses sharing a
// variable genuinely conflict (their updates read/write each other's
// messages through the shared variable's occurrence list). An update
// whose messages moved more than eps re-enqueues its factor-graph
// neighbors — amorphous data-parallelism in its purest worklist form.
// Once the executor's work-set drains, the messages are a fixed point up
// to eps.
type SpeculativeSP struct {
	mu       sync.Mutex
	st       *State
	varItems []*speculation.Item
	nbrs     [][]int // clause -> clauses sharing a variable
	pending  []bool
	tasks    []*clauseTask // by clause; a clause has at most one pending task
	exec     *speculation.Executor
	eps      float64

	Updates int // committed clause updates
}

// clauseTask is clause a's update, built once and re-added whenever the
// clause is enqueued again.
type clauseTask struct {
	s      *SpeculativeSP
	a      int
	commit func()
}

// NewSpeculativeSP prepares the event-driven SP schedule over state st.
// pick selects pending-task indices (nil = LIFO).
func NewSpeculativeSP(st *State, eps float64, pick func(n int) int) *SpeculativeSP {
	n := len(st.F.Clauses)
	s := &SpeculativeSP{
		st:       st,
		varItems: make([]*speculation.Item, st.F.NumVars),
		nbrs:     make([][]int, n),
		pending:  make([]bool, n),
		tasks:    make([]*clauseTask, n),
		exec:     speculation.NewExecutor(pick),
		eps:      eps,
	}
	for v := range s.varItems {
		s.varItems[v] = speculation.NewItem(int64(v))
	}
	// Neighbor lists via shared variables, deduplicated: seen[b] == ci+1
	// once clause b is on clause ci's list.
	seen := make([]int, n)
	for ci, c := range st.F.Clauses {
		seen[ci] = ci + 1
		for _, l := range c.Lits {
			for _, o := range st.Occ[l.Var] {
				if seen[o.Clause] != ci+1 {
					seen[o.Clause] = ci + 1
					s.nbrs[ci] = append(s.nbrs[ci], o.Clause)
				}
			}
		}
	}
	for ci := range st.F.Clauses {
		t := &clauseTask{s: s, a: ci}
		t.commit = func() { s.commitUpdate(t.a) }
		s.tasks[ci] = t
		s.pending[ci] = true
		s.exec.Add(t)
	}
	return s
}

// Executor exposes the underlying speculative executor.
func (s *SpeculativeSP) Executor() *speculation.Executor { return s.exec }

// Run is clause a's speculative step: it acquires every variable of the
// clause. The variable items cover all messages the update reads or
// writes, because every such message belongs to a clause containing one
// of these variables, so a round's winners update disjoint messages and
// their commit actions may run in any order.
func (t *clauseTask) Run(ctx *speculation.Ctx) error {
	s := t.s
	for _, l := range s.st.F.Clauses[t.a].Lits {
		if err := ctx.Acquire(s.varItems[l.Var]); err != nil {
			return err
		}
	}
	ctx.OnCommit(t.commit)
	return nil
}

// commitUpdate applies clause a's update and re-enqueues the factor-graph
// neighbors of a hot clause.
func (s *SpeculativeSP) commitUpdate(a int) {
	delta := s.st.UpdateClause(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Updates++
	s.pending[a] = false
	if delta > s.eps {
		for _, b := range s.nbrs[a] {
			if !s.pending[b] {
				s.pending[b] = true
				s.exec.Add(s.tasks[b])
			}
		}
	}
}
