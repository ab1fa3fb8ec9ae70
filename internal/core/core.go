// Package core is the library's public face: it ties together the CC-graph
// model (internal/graph, internal/sched), the §3 theory (internal/analytic),
// the §4 adaptive controller (internal/control), and the goroutine-based
// optimistic runtime (internal/speculation) behind a small, stable API.
//
// Typical use, model level:
//
//	g := core.RandomCCGraph(seed, 2000, 16)
//	sim := core.NewSimulation(g, seed)
//	traj := sim.RunAdaptive(core.NewController(0.25), 500)
//
// Typical use, runtime level:
//
//	rt := core.NewRuntime(seed)
//	rt.Add(myTask)                       // speculation.Task values
//	res := rt.RunAdaptive(core.NewController(0.25), 10000)
//
// The controller observes one conflict ratio per round and decides the
// next round's processor count; everything else (conflict detection,
// rollback, work-set policy) is handled by the substrates.
package core

import (
	"repro/internal/analytic"
	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/speculation"
)

// Controller decides processor allocation round by round; see
// internal/control for implementations.
type Controller = control.Controller

// Task is a speculative unit of work; see internal/speculation.
type Task = speculation.Task

// Ctx is the speculative execution context passed to tasks.
type Ctx = speculation.Ctx

// Item is a lockable abstract location guarded by the runtime.
type Item = speculation.Item

// Trajectory records a closed-loop model run.
type Trajectory = control.Trajectory

// NewController returns the paper's Algorithm 1 hybrid controller with
// the published default parameters and target conflict ratio rho
// (ρ ∈ [20%, 30%] is the paper's recommendation, Remark 1).
func NewController(rho float64) *control.Hybrid {
	return control.NewHybrid(control.DefaultHybridConfig(rho))
}

// NewControllerWithConfig returns an Algorithm 1 controller with custom
// parameters.
func NewControllerWithConfig(cfg control.HybridConfig) *control.Hybrid {
	return control.NewHybrid(cfg)
}

// NewItem allocates a lockable item with a diagnostic tag.
func NewItem(tag int64) *Item { return speculation.NewItem(tag) }

// RandomCCGraph generates the paper's random computations/conflicts graph
// with n nodes and average degree d, deterministically from seed.
func RandomCCGraph(seed uint64, n int, d float64) *graph.Graph {
	return graph.RandomWithAvgDegree(rng.New(seed), n, d)
}

// WorstCaseCCGraph generates K^n_d, the worst-case clique-union graph of
// Thm. 2 ((d+1) must divide n).
func WorstCaseCCGraph(n, d int) *graph.Graph { return graph.CliqueUnion(n, d) }

// Simulation runs the paper's round-based scheduler model over a CC
// graph with controller-in-the-loop.
type Simulation struct {
	g *graph.Graph
	r *rng.Rand
}

// NewSimulation wraps g (owned by the simulation afterwards); all
// randomness derives from seed.
func NewSimulation(g *graph.Graph, seed uint64) *Simulation {
	return &Simulation{g: g, r: rng.New(seed)}
}

// Graph exposes the underlying CC graph.
func (s *Simulation) Graph() *graph.Graph { return s.g }

// RunAdaptive drains the CC graph under controller c (at most maxRounds
// rounds), returning the recorded trajectory.
func (s *Simulation) RunAdaptive(c Controller, maxRounds int) *Trajectory {
	return control.RunLoop(sched.New(s.g, s.r), c, maxRounds)
}

// RunStatic runs the controller against the static graph (no node
// removal) for exactly rounds rounds — the Fig. 3 experimental setting.
func (s *Simulation) RunStatic(c Controller, rounds int) *Trajectory {
	return control.RunLoopStatic(s.g, s.r, c, rounds)
}

// ConflictRatio estimates r̄(m) (Eq. 1) on the current graph by Monte
// Carlo with the given repetitions.
func (s *Simulation) ConflictRatio(m, reps int) float64 {
	return sched.ConflictRatioMC(s.g, s.r, m, reps)
}

// TargetM returns μ — the largest m whose conflict ratio stays within
// rho — located by bisection (valid by Prop. 1).
func (s *Simulation) TargetM(rho float64, reps int) int {
	return control.TargetM(s.g, s.r, rho, reps)
}

// ConflictRatioParallel estimates r̄(m) on a flat CSR snapshot with the
// Monte Carlo reps sharded across workers (≤ 0 means GOMAXPROCS); see
// internal/sched.Estimator for the determinism contract.
func (s *Simulation) ConflictRatioParallel(m, reps, workers int) float64 {
	return sched.ConflictRatioMCParallel(s.g, s.r, m, reps, workers)
}

// TargetMParallel is TargetM on the CSR estimation engine: one snapshot
// serves every bisection probe, each probe sharding reps across workers.
func (s *Simulation) TargetMParallel(rho float64, reps, workers int) int {
	return control.TargetMParallel(s.g, s.r, rho, reps, workers)
}

// Estimate bundles the closed-form §3 theory for a graph shape (n, d).
type Estimate struct {
	N int
	D float64
}

// TuranParallelism returns the guaranteed expected parallelism n/(d+1).
func (e Estimate) TuranParallelism() float64 { return analytic.TuranBound(e.N, e.D) }

// WorstCaseConflictRatio returns the Thm. 3 bound at m processors.
func (e Estimate) WorstCaseConflictRatio(m int) float64 {
	return analytic.WorstCaseConflictRatio(e.N, int(e.D), m)
}

// InitialSlope returns Δr̄(1) = d/(2(n−1)) (Prop. 2).
func (e Estimate) InitialSlope() float64 { return analytic.InitialSlope(e.N, e.D) }

// SafeInitialM returns the Cor. 3-derived starting allocation
// m = n/(2(d+1)), which keeps the worst-case conflict ratio ≤ ~21.3%.
func (e Estimate) SafeInitialM() int { return analytic.SuggestedInitialM(e.N, e.D) }

// Runtime is the goroutine-based optimistic parallelization runtime with
// adaptive allocation.
type Runtime struct {
	e *speculation.Executor
}

// NewRuntime returns an empty runtime whose random task selection is
// seeded from seed.
func NewRuntime(seed uint64) *Runtime {
	r := rng.New(seed)
	return &Runtime{e: speculation.NewExecutor(func(n int) int { return r.Intn(n) })}
}

// Add inserts a speculative task into the work-set.
func (rt *Runtime) Add(t Task) { rt.e.Add(t) }

// Pending returns the number of tasks awaiting execution.
func (rt *Runtime) Pending() int { return rt.e.Pending() }

// Executor exposes the underlying executor for advanced use.
func (rt *Runtime) Executor() *speculation.Executor { return rt.e }

// Round executes one speculative round of m tasks and returns its stats.
func (rt *Runtime) Round(m int) speculation.RoundStats { return rt.e.Round(m) }

// RunAdaptive drives the runtime under controller c until the work-set
// drains or maxRounds elapse.
func (rt *Runtime) RunAdaptive(c Controller, maxRounds int) *speculation.AdaptiveResult {
	return speculation.RunAdaptive(rt.e, c, maxRounds)
}

// OrderedTask is a prioritized speculative unit for ordered algorithms
// (events that must commit chronologically); see internal/speculation.
type OrderedTask = speculation.OrderedTask

// OrderedRuntime runs prioritized tasks optimistically with in-order
// commits — processor allocation for ordered algorithms (§5).
type OrderedRuntime struct {
	e *speculation.OrderedExecutor
}

// NewOrderedRuntime returns an empty ordered runtime.
func NewOrderedRuntime() *OrderedRuntime {
	return &OrderedRuntime{e: speculation.NewOrderedExecutor()}
}

// Add inserts a prioritized task.
func (rt *OrderedRuntime) Add(t OrderedTask) { rt.e.Add(t) }

// Pending returns the number of queued tasks.
func (rt *OrderedRuntime) Pending() int { return rt.e.Pending() }

// Executor exposes the underlying ordered executor.
func (rt *OrderedRuntime) Executor() *speculation.OrderedExecutor { return rt.e }

// RunAdaptive drives the ordered runtime under controller c.
func (rt *OrderedRuntime) RunAdaptive(c Controller, maxRounds int) *speculation.AdaptiveResult {
	return speculation.RunAdaptive(rt.e, c, maxRounds)
}

// RunGraph is a convenience that executes an entire CC graph as
// speculative tasks under controller c: the end-to-end pipeline the
// paper's §5 anticipates ("integration in the Galois system").
func RunGraph(g *graph.Graph, seed uint64, c Controller, maxRounds int) *speculation.AdaptiveResult {
	r := rng.New(seed)
	wl := speculation.NewGraphWorkload(g)
	e := speculation.NewGraphExecutor(wl, r)
	defer e.Close()
	return speculation.RunAdaptive(e, c, maxRounds)
}
