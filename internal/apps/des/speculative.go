package des

import "repro/internal/speculation"

// SpeculativeSim runs the queueing network on an executor under the
// *ordered* schedule: events are prioritized tasks acquiring their
// station; the executor commits them chronologically, aborting same-round same-
// station races (conflicts) and executions that ran ahead of freshly
// spawned earlier events (premature, the Time-Warp hazard). Because
// Apply is shared with the sequential oracle and all stochastic choices
// are functions of (seed, station, job), the speculative run produces a
// bit-identical final state.
type SpeculativeSim struct {
	state *State
	items []*speculation.Item
	exec  *speculation.Executor
}

// NewSpeculativeSim prepares the ordered workload: one task per initial
// external arrival.
func NewSpeculativeSim(net *Network, jobs int, interMean float64) *SpeculativeSim {
	s := &SpeculativeSim{
		state: NewState(net, jobs),
		items: make([]*speculation.Item, net.Stations),
		exec:  speculation.NewOrderedExecutor(),
	}
	for i := range s.items {
		s.items[i] = speculation.NewItem(int64(i))
	}
	for _, e := range net.Arrivals(jobs, interMean) {
		s.exec.Add(eventTask{sim: s, ev: e})
	}
	return s
}

// State exposes the simulation state (final after draining).
func (s *SpeculativeSim) State() *State { return s.state }

// Executor exposes the ordered executor for inspection.
func (s *SpeculativeSim) Executor() *speculation.Executor { return s.exec }

// eventTask adapts an Event to speculation.OrderedTask.
type eventTask struct {
	sim *SpeculativeSim
	ev  Event
}

// Key implements speculation.OrderedTask with the model's total order.
func (t eventTask) Key() speculation.Key {
	return speculation.Key{Time: t.ev.Time, Tie: t.ev.Tie()}
}

// Run implements speculation.Task: phase 1 acquires the station and
// precomputes the (pure) service time; the state transition itself is a
// commit action, which the ordered walk runs in place, so the events it
// spawns are checked against the rest of the round.
func (t eventTask) Run(ctx *speculation.Ctx) error {
	if err := ctx.Acquire(t.sim.items[t.ev.Station]); err != nil {
		return err
	}
	// Speculative useful work: the stochastic service draw is a pure
	// function, so it can be burned here in parallel.
	if t.ev.Kind == Arrival {
		_ = t.sim.state.Net.ServiceTime(t.ev.Station, t.ev.Job)
	}
	ctx.OnCommit(func() {
		for _, e := range t.sim.state.Apply(t.ev) {
			ctx.Spawn(eventTask{sim: t.sim, ev: e})
		}
	})
	return nil
}
