package des

import "repro/internal/speculation"

// SpeculativeSim runs the queueing network on the *ordered* speculative
// executor: events are prioritized tasks claiming their station; the
// executor commits them chronologically, aborting same-round same-
// station races (conflicts) and executions that ran ahead of freshly
// spawned earlier events (premature, the Time-Warp hazard). Because
// Apply is shared with the sequential oracle and all stochastic choices
// are functions of (seed, station, job), the speculative run produces a
// bit-identical final state.
type SpeculativeSim struct {
	state *State
	items []*speculation.Item
	exec  *speculation.OrderedExecutor
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
		s.exec.Add(s.taskFor(e))
	}
	return s
}

// State exposes the simulation state (final after draining).
func (s *SpeculativeSim) State() *State { return s.state }

// Executor exposes the ordered executor for inspection.
func (s *SpeculativeSim) Executor() *speculation.OrderedExecutor { return s.exec }

// eventTask adapts an Event to speculation.OrderedTask.
type eventTask struct {
	sim *SpeculativeSim
	ev  Event
}

// Key implements speculation.OrderedTask with the model's total order.
func (t eventTask) Key() speculation.Key {
	return speculation.Key{Time: t.ev.Time, Tie: t.ev.Tie()}
}

// Run implements speculation.OrderedTask: phase 1 claims the station
// and precomputes the (pure) service time; the state transition itself
// runs at commit, where its spawns are surfaced to the executor.
func (t eventTask) Run(ctx *speculation.OrderedCtx) error {
	ctx.Claim(t.sim.items[t.ev.Station])
	// Speculative useful work: the stochastic service draw is a pure
	// function, so it can be burned here in parallel.
	if t.ev.Kind == Arrival {
		_ = t.sim.state.Net.ServiceTime(t.ev.Station, t.ev.Job)
	}
	ctx.SpawnAtCommit(func() []speculation.OrderedTask {
		outs := t.sim.state.Apply(t.ev)
		tasks := make([]speculation.OrderedTask, len(outs))
		for i, e := range outs {
			tasks[i] = eventTask{sim: t.sim, ev: e}
		}
		return tasks
	})
	return nil
}

func (s *SpeculativeSim) taskFor(e Event) speculation.OrderedTask {
	return eventTask{sim: s, ev: e}
}

// ProfilePoint records one clairvoyant step of an ordered run.
type ProfilePoint struct {
	Step        int
	Pending     int
	Parallelism int // events committed when every pending event launches
}

// ParallelismProfile measures the *ordered* available parallelism of a
// network: each step launches every pending event and records how many
// survive the chronological commit rules — the ordered analogue of the
// Lonestar profiles, and the quantity the paper's §5 says is "very hard
// to obtain good estimates of".
func ParallelismProfile(net *Network, jobs int, interMean float64, maxSteps int) []ProfilePoint {
	sim := NewSpeculativeSim(net, jobs, interMean)
	var out []ProfilePoint
	for step := 0; step < maxSteps && sim.exec.Pending() > 0; step++ {
		pending := sim.exec.Pending()
		st := sim.exec.Round(pending)
		out = append(out, ProfilePoint{
			Step:        step,
			Pending:     pending,
			Parallelism: st.Committed,
		})
	}
	return out
}
