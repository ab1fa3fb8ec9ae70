package sp

import (
	"sync"

	"repro/internal/speculation"
)

// SpeculativeSP runs survey propagation as an event-driven irregular
// worklist on the optimistic runtime: each pending clause update is a
// speculative task that locks the clause's variables; clauses sharing a
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
	exec     *speculation.Executor
	eps      float64

	Updates int // committed clause updates
}

// NewSpeculativeSP prepares the event-driven SP schedule over state st.
// pick selects pending-task indices (nil = LIFO).
func NewSpeculativeSP(st *State, eps float64, pick func(n int) int) *SpeculativeSP {
	s := &SpeculativeSP{
		st:       st,
		varItems: make([]*speculation.Item, st.F.NumVars),
		nbrs:     make([][]int, len(st.F.Clauses)),
		pending:  make([]bool, len(st.F.Clauses)),
		exec:     speculation.NewExecutor(pick),
		eps:      eps,
	}
	for v := range s.varItems {
		s.varItems[v] = speculation.NewItem(int64(v))
	}
	// Neighbor lists via shared variables (deduplicated).
	for ci, c := range st.F.Clauses {
		seen := map[int]bool{ci: true}
		for _, l := range c.Lits {
			for _, o := range st.Occ[l.Var] {
				if !seen[o.Clause] {
					seen[o.Clause] = true
					s.nbrs[ci] = append(s.nbrs[ci], o.Clause)
				}
			}
		}
	}
	for ci := range st.F.Clauses {
		s.pending[ci] = true
		s.exec.Add(s.taskFor(ci))
	}
	return s
}

// Executor exposes the underlying speculative executor.
func (s *SpeculativeSP) Executor() *speculation.Executor { return s.exec }

// taskFor builds the speculative update task for clause a.
func (s *SpeculativeSP) taskFor(a int) speculation.Task {
	return speculation.TaskFunc(func(ctx *speculation.Ctx) error {
		// Cautious operator: acquire every variable of the clause
		// before touching any message. The variable locks protect all
		// messages this update reads or writes, because every such
		// message belongs to a clause containing one of these
		// variables.
		for _, l := range s.st.F.Clauses[a].Lits {
			if err := ctx.Acquire(s.varItems[l.Var]); err != nil {
				return err
			}
		}
		delta := s.st.UpdateClause(a)
		ctx.OnCommit(func() { s.commitUpdate(a, delta) })
		return nil
	})
}

// commitUpdate re-enqueues the factor-graph neighbors of a hot clause.
func (s *SpeculativeSP) commitUpdate(a int, delta float64) {
	s.mu.Lock()
	s.Updates++
	s.pending[a] = false
	var spawn []int
	if delta > s.eps {
		for _, b := range s.nbrs[a] {
			if !s.pending[b] {
				s.pending[b] = true
				spawn = append(spawn, b)
			}
		}
	}
	s.mu.Unlock()
	for _, b := range spawn {
		s.exec.Add(s.taskFor(b))
	}
}
