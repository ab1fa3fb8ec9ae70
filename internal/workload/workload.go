// Package workload is the registry naming every application workload
// and every processor-allocation controller behind constructor
// functions. It replaces the construction switch ladders that used to
// be duplicated across cmd/apprun and cmd/controlsim, and gives the
// specd service one place to instantiate a (workload, controller) pair
// from wire-level names.
//
// A workload instance is a Run: a Stepper that advances the speculative
// execution round by round (abstracting over the unordered and ordered
// executors), plus the app-specific verification oracle and the CLI
// report. Construction is deterministic in Params.Seed — two Runs built
// from equal Params produce identical trajectories when driven
// identically.
package workload

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/apps/boruvka"
	"repro/internal/apps/cluster"
	"repro/internal/apps/des"
	"repro/internal/apps/maxflow"
	"repro/internal/apps/mesh"
	"repro/internal/apps/sp"
	"repro/internal/control"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/speculation"
)

// Params configures a workload instance.
type Params struct {
	// Size is the workload size parameter (same meaning as apprun's
	// -size flag; n for the synthetic CC workload).
	Size int
	// Seed seeds every stochastic choice of the run.
	Seed uint64
	// Parallel is the executor worker-pool size (0 = one goroutine per
	// task, the model-faithful mode).
	Parallel int
	// Degree is the average degree of the synthetic "cc" workload's
	// random graph (0 = 16). Ignored by the application workloads.
	Degree float64
	// TaskRetries is the executor retry budget for failed (panicked or
	// errored) tasks: 0 means speculation.DefaultTaskRetries, negative
	// disables retries.
	TaskRetries int
	// Fault, when non-nil, wires deterministic fault injection around
	// every task. Only the synthetic workloads ("cc", "spin") support
	// it: the application workloads add their initial tasks during
	// construction, before an injector could intercept them.
	Fault *faultinject.Config
}

// RoundResult is one round's outcome as reported by a Stepper.
type RoundResult struct {
	Launched  int
	Committed int
	Aborted   int // conflict aborts — the controller's signal
	Failed    int // panics / non-conflict errors (rolled back)
	Poisoned  int // failures that exhausted the retry budget this round
}

// ConflictRatio is aborts over launches, the paper's r. Failures are
// excluded: an injected panic is not contention and must not throttle
// the allocation controller.
func (r RoundResult) ConflictRatio() float64 {
	if r.Launched == 0 {
		return 0
	}
	return float64(r.Aborted) / float64(r.Launched)
}

// Stepper is the round-level driving surface shared by the unordered
// and ordered executors: one call launches up to m speculative tasks
// and reports the round's outcome, and Snapshot exposes the live
// counters race-free for monitors.
type Stepper interface {
	// Pending returns the number of tasks awaiting execution.
	Pending() int
	// Round launches up to m tasks and waits for the round to finish.
	// A canceled ctx makes Round return a zero RoundResult without
	// launching; an in-flight round is never interrupted (cancellation
	// is observed at round barriers only).
	Round(ctx context.Context, m int) RoundResult
	// Snapshot returns pending count plus cumulative counters in one
	// race-safe call.
	Snapshot() speculation.Snapshot
	// Close releases executor resources (worker pool, context cache).
	Close()
}

// Run is an instantiated workload ready to be driven round by round.
type Run struct {
	Name    string
	Stepper Stepper

	summary func(res *speculation.AdaptiveResult) string
	verify  func() (string, error)
}

// Verify checks the workload's oracle once the work-set has drained,
// returning a one-line result summary (or the verification error).
func (r *Run) Verify() (string, error) { return r.verify() }

// Report writes the two-line CLI report for a completed adaptive run —
// byte-identical to the historical cmd/apprun output.
func (r *Run) Report(w io.Writer, res *speculation.AdaptiveResult) {
	fmt.Fprintln(w, r.summary(res))
	detail, err := r.Verify()
	if err != nil {
		fmt.Fprintf(w, "         VERIFY FAILED: %v\n", err)
		return
	}
	fmt.Fprintf(w, "         %s\n", detail)
}

// ReportIncomplete writes the report for a run whose drain stopped
// early (round cap or cancellation): the summary line is unchanged but
// the oracle is not consulted — a truncated run is incomplete, not
// wrong.
func (r *Run) ReportIncomplete(w io.Writer, res *speculation.AdaptiveResult, pending int) {
	fmt.Fprintln(w, r.summary(res))
	fmt.Fprintf(w, "         INCOMPLETE: %d tasks still pending (round cap or cancellation); oracle not run\n", pending)
}

// DrainHooks customizes DrainHooked, the hook-bearing form of the
// Algorithm 1 main loop.
type DrainHooks struct {
	// MaxRounds caps the drive (<= 0 means effectively unbounded).
	MaxRounds int
	// Barrier, when set, runs at every round barrier before the next
	// round launches. Returning false stops the drive there — the
	// in-flight round has already completed, so a preemption or
	// cancellation observed here costs at most one round of work.
	Barrier func(round int) bool
	// OnRound, when set, receives every completed round after the
	// controller has observed it.
	OnRound func(round, m int, rr RoundResult)
}

// DrainHooked drives the stepper under controller c until the work-set
// empties, the round cap trips, ctx is canceled, or the barrier hook
// stops it — the paper's Algorithm 1 main loop (M → Round → Observe)
// with a pause point at every round barrier. It returns the number of
// rounds executed and whether the barrier hook stopped the drive.
func DrainHooked(ctx context.Context, s Stepper, c control.Controller, h DrainHooks) (rounds int, stopped bool) {
	maxRounds := h.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1 << 30
	}
	round := 0
	for ; round < maxRounds && s.Pending() > 0; round++ {
		if ctx.Err() != nil {
			return round, false
		}
		if h.Barrier != nil && !h.Barrier(round) {
			return round, true
		}
		m := c.M()
		rr := s.Round(ctx, m)
		c.Observe(rr.ConflictRatio())
		if h.OnRound != nil {
			h.OnRound(round, m, rr)
		}
	}
	return round, false
}

// Drain drives the stepper under controller c until the work-set
// empties, maxRounds elapse, or ctx is canceled — the paper's
// Algorithm 1 main loop, identical to speculation.RunAdaptive but
// expressed over the Stepper abstraction so ordered and unordered
// workloads share it. Failed attempts count as wasted work alongside
// aborts, but only aborts feed the controller's conflict ratio. It is
// DrainHooked with no barrier hook, accumulating the standard result.
func Drain(ctx context.Context, s Stepper, c control.Controller, maxRounds int) *speculation.AdaptiveResult {
	res := &speculation.AdaptiveResult{Controller: c.Name()}
	res.Rounds, _ = DrainHooked(ctx, s, c, DrainHooks{
		MaxRounds: maxRounds,
		OnRound: func(round, m int, rr RoundResult) {
			res.M = append(res.M, m)
			res.R = append(res.R, rr.ConflictRatio())
			res.Committed = append(res.Committed, rr.Committed)
			res.UsefulWork += rr.Committed
			res.WastedWork += rr.Aborted + rr.Failed
			res.ProcRounds += rr.Launched
		},
	})
	return res
}

// AsyncStepper is the barrier-free driving surface: steppers backed by
// the unordered executor expose its RunAsync drive. Use SupportsAsync
// to decide whether a *workload* may be driven this way — implementing
// the interface is necessary but not sufficient (an application's
// commit actions may assume round-barrier serialization).
type AsyncStepper interface {
	Stepper
	RunAsync(ctx context.Context, c control.Controller, opts speculation.AsyncOptions) *speculation.AsyncResult
}

// DrainAsync drives the stepper barrier-free under controller c until
// the work-set drains, ctx is canceled, or an options bound trips —
// the async analogue of Drain, returning the same AdaptiveResult shape
// with one entry per sliding-window sample instead of per round. The
// stepper must support async execution (ordered workloads do not).
func DrainAsync(ctx context.Context, s Stepper, c control.Controller, opts speculation.AsyncOptions) (*speculation.AdaptiveResult, error) {
	as, ok := s.(AsyncStepper)
	if !ok {
		return nil, fmt.Errorf("workload: %T does not support barrier-free execution", s)
	}
	ar := as.RunAsync(ctx, c, opts)
	res := &speculation.AdaptiveResult{Controller: c.Name()}
	for _, sm := range ar.Trajectory {
		res.M = append(res.M, sm.M)
		res.R = append(res.R, sm.R)
		res.Committed = append(res.Committed, sm.Committed)
	}
	res.Rounds = ar.Samples
	res.UsefulWork = int(ar.Committed)
	res.WastedWork = int(ar.Aborted + ar.Failed)
	res.ProcRounds = int(ar.Launched)
	return res, nil
}

// ColoredStepper is the hybrid speculative→colored driving surface:
// steppers backed by the unordered executor expose its RunColored
// drive. Use SupportsColored to decide whether a *workload* may be
// driven this way — implementing the interface is necessary but not
// sufficient (the workload's tasks must be conflict-keyed and its
// operators cautious, see CapColored).
type ColoredStepper interface {
	Stepper
	RunColored(ctx context.Context, c control.Controller, opts speculation.ColoredOptions) *speculation.ColoredResult
}

// DrainColored drives the stepper in hybrid speculative→colored mode
// until the work-set drains, ctx is canceled, or an options bound
// trips. It returns the per-round trajectory in the shared
// AdaptiveResult shape (colored super-rounds appear with their launch
// count as M and their ~0 conflict ratio as R) plus the colored-phase
// statistics. A caller-provided opts.OnRound still fires for every
// round.
func DrainColored(ctx context.Context, s Stepper, c control.Controller, opts speculation.ColoredOptions) (*speculation.AdaptiveResult, *speculation.ColoredResult, error) {
	cst, ok := s.(ColoredStepper)
	if !ok {
		return nil, nil, fmt.Errorf("workload: %T does not support colored execution", s)
	}
	res := &speculation.AdaptiveResult{Controller: c.Name()}
	user := opts.OnRound
	opts.OnRound = func(cr speculation.ColoredRound) {
		res.M = append(res.M, cr.M)
		res.R = append(res.R, cr.R)
		res.Committed = append(res.Committed, cr.Committed)
		if user != nil {
			user(cr)
		}
	}
	cres := cst.RunColored(ctx, c, opts)
	res.Rounds = cres.Rounds
	res.UsefulWork = int(cres.Committed)
	res.WastedWork = int(cres.Aborted + cres.Failed)
	res.ProcRounds = int(cres.Launched)
	return res, cres, nil
}

// execStepper adapts the unordered executor.
type execStepper struct{ e *speculation.Executor }

func (s execStepper) Pending() int { return s.e.Pending() }
func (s execStepper) Round(ctx context.Context, m int) RoundResult {
	if ctx.Err() != nil {
		return RoundResult{}
	}
	st := s.e.Round(m)
	return RoundResult{
		Launched:  st.Launched,
		Committed: st.Committed,
		Aborted:   st.Aborted,
		Failed:    st.Failed,
		Poisoned:  st.Poisoned,
	}
}
func (s execStepper) Snapshot() speculation.Snapshot { return s.e.Snapshot() }
func (s execStepper) Close()                         { s.e.Close() }
func (s execStepper) RunAsync(ctx context.Context, c control.Controller, opts speculation.AsyncOptions) *speculation.AsyncResult {
	return s.e.RunAsync(ctx, c, opts)
}
func (s execStepper) RunColored(ctx context.Context, c control.Controller, opts speculation.ColoredOptions) *speculation.ColoredResult {
	return s.e.RunColored(ctx, c, opts)
}

// orderedStepper adapts the ordered executor; aborted counts conflicts
// plus premature executions, matching OrderedRoundStats.ConflictRatio.
type orderedStepper struct{ e *speculation.OrderedExecutor }

func (s orderedStepper) Pending() int { return s.e.Pending() }
func (s orderedStepper) Round(ctx context.Context, m int) RoundResult {
	if ctx.Err() != nil {
		return RoundResult{}
	}
	st := s.e.Round(m)
	return RoundResult{
		Launched:  st.Launched,
		Committed: st.Committed,
		Aborted:   st.Aborted(),
		Failed:    st.Failed,
		Poisoned:  st.Poisoned,
	}
}
func (s orderedStepper) Snapshot() speculation.Snapshot { return s.e.Snapshot() }
func (s orderedStepper) Close()                         { s.e.Close() }

// stdSummary is the report line shared by the unordered workloads.
func stdSummary(name string, s Stepper) func(res *speculation.AdaptiveResult) string {
	return func(res *speculation.AdaptiveResult) string {
		snap := s.Snapshot()
		return fmt.Sprintf("%-8s rounds=%-6d committed=%-7d aborted=%-6d conflict-ratio=%.3f mean-m=%.1f",
			name, res.Rounds, snap.Committed, snap.Aborted, snap.ConflictRatio(), meanM(res))
	}
}

func meanM(res *speculation.AdaptiveResult) float64 {
	if len(res.M) == 0 {
		return 0
	}
	s := 0.0
	for _, m := range res.M {
		s += float64(m)
	}
	return s / float64(len(res.M))
}

// Capability flags a registry entry declares about its workload. They
// replace the hardcoded name lists the Supports* predicates used to
// carry: adding a workload now states its capabilities next to its
// constructor instead of editing predicates scattered across the file.
type Capability uint8

const (
	// CapFault: the workload's tasks enter the executor after the
	// fault-injection hook is in place, so WrapTask can intercept them.
	// The application workloads add their initial tasks during
	// construction and cannot carry this flag.
	CapFault Capability = 1 << iota
	// CapAsync: the workload may be driven barrier-free. Its commit
	// actions guard their own shared state, so they are safe to run as
	// tasks settle rather than at a round barrier.
	CapAsync
	// CapColored: the workload may be driven in hybrid
	// speculative→colored mode. Its tasks are conflict-keyed
	// (speculation.ConflictKeyed) and its operators follow the cautious
	// contract colored execution relies on: the parallel phase only
	// reads shared state, and mutations are deferred to serially-run,
	// re-validating commit actions.
	CapColored
)

// builders maps workload names to constructors and their capability
// flags, in registry order.
var builders = []struct {
	name  string
	caps  Capability
	build func(Params) (*Run, error)
}{
	{"mesh", CapColored, newMesh},
	{"boruvka", 0, newBoruvka},
	{"sp", 0, newSP},
	{"cluster", CapColored, newCluster},
	{"des", 0, newDES},
	{"maxflow", 0, newMaxflow},
	{"cc", CapFault | CapAsync | CapColored, newCC},
	{"spin", CapFault | CapAsync, newSpin},
	{"stable", CapAsync | CapColored, newStable},
}

// Names returns the registered workload names in registry order.
func Names() []string {
	out := make([]string, len(builders))
	for i, b := range builders {
		out[i] = b.name
	}
	return out
}

// Has reports whether name is a registered workload.
func Has(name string) bool {
	for _, b := range builders {
		if b.name == name {
			return true
		}
	}
	return false
}

// Supports reports whether the named workload carries every capability
// in c. Unknown names support nothing.
func Supports(name string, c Capability) bool {
	for _, b := range builders {
		if b.name == name {
			return b.caps&c == c
		}
	}
	return false
}

// CapableNames returns the registered workloads carrying every
// capability in c, in registry order — error messages list them so the
// set never drifts from the registry.
func CapableNames(c Capability) []string {
	var out []string
	for _, b := range builders {
		if b.caps&c == c {
			out = append(out, b.name)
		}
	}
	return out
}

// SupportsFault reports whether the named workload can host fault
// injection (its tasks enter the executor after WrapTask is set).
func SupportsFault(name string) bool { return Supports(name, CapFault) }

// SupportsAsync reports whether the named workload can be driven
// barrier-free. The application workloads' commit actions assume the
// round barrier serializes them against all speculation; capable
// workloads guard their shared state themselves, so their commit
// actions are safe to run as tasks settle.
func SupportsAsync(name string) bool { return Supports(name, CapAsync) }

// SupportsColored reports whether the named workload can be driven in
// hybrid speculative→colored mode (conflict-keyed tasks, cautious
// operators — see CapColored).
func SupportsColored(name string) bool { return Supports(name, CapColored) }

// defaultDegree is the average conflict-graph degree of the synthetic
// random-graph workloads when Params.Degree is unset.
var defaultDegree = map[string]float64{"cc": 16, "stable": 8}

// degree resolves Params.Degree for the named random-graph workload.
func degree(name string, p Params) float64 {
	if p.Degree > 0 {
		return p.Degree
	}
	return defaultDegree[name]
}

// Validate rejects, without building anything, parameters no instance
// of the named workload can be built from: the random-graph workloads
// draw Size·Degree/2 distinct edges, and a simple graph on Size nodes
// has average degree at most Size−1. Admission paths call it so an
// impossible request is refused rather than queued; New calls it too.
func Validate(name string, p Params) error {
	if _, ok := defaultDegree[name]; !ok {
		return nil
	}
	if d := degree(name, p); d > float64(p.Size-1) {
		return fmt.Errorf("workload: %q of size %d cannot have average degree %v (at most size-1)", name, p.Size, d)
	}
	return nil
}

// New instantiates the named workload. Construction builds the full
// input (mesh, graph, formula, …), so it can be deferred until a job
// actually runs.
func New(name string, p Params) (*Run, error) {
	for _, b := range builders {
		if b.name == name {
			if p.Fault != nil && !SupportsFault(name) {
				return nil, fmt.Errorf("workload: %q does not support fault injection", name)
			}
			if err := Validate(name, p); err != nil {
				return nil, err
			}
			return b.build(p)
		}
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// applyFault wires an injector into e, clamping TransientAttempts to
// the executor's retry budget so a transient fault can never exhaust
// it and accidentally poison.
func applyFault(e *speculation.Executor, cfg *faultinject.Config) error {
	if cfg == nil {
		return nil
	}
	c := *cfg
	budget := e.TaskRetries
	if budget == 0 {
		budget = speculation.DefaultTaskRetries
	}
	if budget < 0 {
		budget = 0
	}
	if c.TransientAttempts > budget {
		c.TransientAttempts = budget
	}
	in, err := faultinject.New(c)
	if err != nil {
		return err
	}
	e.WrapTask = in.WrapTask
	return nil
}

func newMesh(p Params) (*Run, error) {
	r := rng.New(p.Seed)
	m := mesh.NewSquare(0, 1)
	for i := 0; i < p.Size/10; i++ {
		m.Insert(mesh.Point{X: 0.01 + 0.98*r.Float64(), Y: 0.01 + 0.98*r.Float64()})
	}
	q := mesh.Quality{MaxArea: 1.0 / float64(p.Size)}
	ref := mesh.NewSpeculativeRefiner(m, q, func(n int) int { return r.Intn(n) })
	ref.Executor().MaxParallel = p.Parallel
	ref.Executor().TaskRetries = p.TaskRetries
	st := execStepper{ref.Executor()}
	return &Run{
		Name:    "mesh",
		Stepper: st,
		summary: stdSummary("mesh", st),
		verify: func() (string, error) {
			return fmt.Sprintf("inserted=%d triangles=%d bad-remaining=%d",
				ref.Inserted, m.NumTriangles(), len(m.BadTriangles(q))), nil
		},
	}, nil
}

func newBoruvka(p Params) (*Run, error) {
	r := rng.New(p.Seed)
	g := boruvka.NewRandomConnected(r, p.Size, p.Size*3)
	s := boruvka.NewSpeculativeMSF(g, func(n int) int { return r.Intn(n) })
	s.Executor().MaxParallel = p.Parallel
	s.Executor().TaskRetries = p.TaskRetries
	st := execStepper{s.Executor()}
	return &Run{
		Name:    "boruvka",
		Stepper: st,
		summary: stdSummary("boruvka", st),
		verify: func() (string, error) {
			msf := s.Result()
			if err := boruvka.Verify(g, msf); err != nil {
				return "", err
			}
			return fmt.Sprintf("msf-edges=%d weight=%.3f (verified against Kruskal)",
				len(msf.Edges), msf.Weight), nil
		},
	}, nil
}

func newSP(p Params) (*Run, error) {
	r := rng.New(p.Seed)
	f := sp.NewRandom3SAT(r, p.Size, int(float64(p.Size)*2.5))
	state := sp.NewState(f, r.Split())
	s := sp.NewSpeculativeSP(state, 1e-4, func(n int) int { return r.Intn(n) })
	s.Executor().MaxParallel = p.Parallel
	s.Executor().TaskRetries = p.TaskRetries
	st := execStepper{s.Executor()}
	return &Run{
		Name:    "sp",
		Stepper: st,
		summary: stdSummary("sp", st),
		verify: func() (string, error) {
			return fmt.Sprintf("clause-updates=%d final-sweep-residual=%.2g",
				s.Updates, state.Sweep()), nil
		},
	}, nil
}

func newCluster(p Params) (*Run, error) {
	r := rng.New(p.Seed)
	cl := cluster.New(cluster.RandomPoints(r, p.Size))
	s := cluster.NewSpeculative(cl, 1, func(n int) int { return r.Intn(n) })
	s.Executor().MaxParallel = p.Parallel
	s.Executor().TaskRetries = p.TaskRetries
	st := execStepper{s.Executor()}
	return &Run{
		Name:    "cluster",
		Stepper: st,
		summary: stdSummary("cluster", st),
		verify: func() (string, error) {
			if err := cl.CheckDendrogram(p.Size); err != nil {
				return "", err
			}
			return fmt.Sprintf("merges=%d clusters-left=%d (dendrogram verified)",
				len(cl.Merges), cl.NumClusters()), nil
		},
	}, nil
}

func newDES(p Params) (*Run, error) {
	// Ordered workload (§5 future work): events commit chronologically.
	means := []float64{0.2, 0.15, 0.25, 0.2, 0.1, 0.3}
	net := des.NewTandem(p.Seed, means...)
	sim := des.NewSpeculativeSim(net, p.Size/2, 0.05)
	sim.Executor().MaxParallel = p.Parallel
	sim.Executor().TaskRetries = p.TaskRetries
	st := orderedStepper{sim.Executor()}
	return &Run{
		Name:    "des",
		Stepper: st,
		summary: func(res *speculation.AdaptiveResult) string {
			e := sim.Executor()
			return fmt.Sprintf("%-8s rounds=%-6d committed=%-7d conflicts=%-5d premature=%-6d wasted=%.3f",
				"des", res.Rounds, e.TotalCommitted(), e.TotalConflicts(), e.TotalPremature(),
				e.OverallConflictRatio())
		},
		verify: func() (string, error) {
			if err := sim.State().CheckComplete(); err != nil {
				return "", err
			}
			oracle := des.RunSequential(net, p.Size/2, 0.05)
			m1, s1 := sim.State().MakespanAndThroughput()
			m2, s2 := oracle.MakespanAndThroughput()
			if s1 != s2 || m1 != m2 {
				return "", fmt.Errorf("(%.4f,%d) vs oracle (%.4f,%d)", m1, s1, m2, s2)
			}
			return fmt.Sprintf("served=%d makespan=%.2f (bit-identical to sequential oracle)", s1, m1), nil
		},
	}, nil
}

func newMaxflow(p Params) (*Run, error) {
	r := rng.New(p.Seed)
	net := maxflow.RandomNetwork(r, p.Size/2, p.Size*2, 50)
	oracle := maxflow.EdmondsKarp(net.Clone(), 0, net.N-1)
	s := maxflow.NewSpeculativePR(net, 0, net.N-1, func(n int) int { return r.Intn(n) })
	s.Executor().MaxParallel = p.Parallel
	s.Executor().TaskRetries = p.TaskRetries
	st := execStepper{s.Executor()}
	return &Run{
		Name:    "maxflow",
		Stepper: st,
		summary: stdSummary("maxflow", st),
		verify: func() (string, error) {
			if got := s.FlowValue(); got != oracle {
				return "", fmt.Errorf("flow %d vs oracle %d", got, oracle)
			}
			return fmt.Sprintf("max-flow=%d (verified against Edmonds-Karp)", s.FlowValue()), nil
		},
	}, nil
}

// newCC builds the synthetic CC-graph workload of the paper's model: one
// task per node, adjacent tasks conflict, committed tasks leave the
// graph — the draining workload cmd/controlsim's efficiency experiments
// run. The construction sequence (rng, graph, executor seed split)
// matches those experiments exactly; the executor is built inline
// rather than via speculation.NewGraphExecutor so the fault-injection
// hook is in place before Populate adds the node tasks.
func newCC(p Params) (*Run, error) {
	r := rng.New(p.Seed)
	g := graph.RandomWithAvgDegree(r, p.Size, degree("cc", p))
	wl := speculation.NewGraphWorkload(g)
	pick := r.Split()
	var mu sync.Mutex
	e := speculation.NewExecutor(func(n int) int {
		mu.Lock()
		defer mu.Unlock()
		return pick.Intn(n)
	})
	e.MaxParallel = p.Parallel
	e.TaskRetries = p.TaskRetries
	if err := applyFault(e, p.Fault); err != nil {
		e.Close()
		return nil, err
	}
	wl.Populate(e)
	st := execStepper{e}
	return &Run{
		Name:    "cc",
		Stepper: st,
		summary: stdSummary("cc", st),
		verify: func() (string, error) {
			if left := wl.Graph().NumNodes(); left > 0 {
				if e.TotalPoisoned() > 0 {
					return fmt.Sprintf("nodes-processed=%d poisoned=%d (degraded: quarantined tasks left %d nodes unprocessed)",
						p.Size-left, e.TotalPoisoned(), left), nil
				}
				return "", fmt.Errorf("%d nodes unprocessed", left)
			}
			return fmt.Sprintf("nodes-processed=%d (graph drained)", p.Size), nil
		},
	}, nil
}

// newSpin builds a synthetic workload that never drains: every task
// commits and respawns itself, keeping Pending constant forever. It
// exists to exercise deadlines, cancellation, and watchdogs — anything
// that must terminate a job the workload itself never will.
func newSpin(p Params) (*Run, error) {
	n := p.Size
	if n <= 0 {
		n = 1
	}
	e := speculation.NewExecutor(nil)
	e.MaxParallel = p.Parallel
	e.TaskRetries = p.TaskRetries
	if err := applyFault(e, p.Fault); err != nil {
		e.Close()
		return nil, err
	}
	var spinTask speculation.TaskFunc
	spinTask = func(ctx *speculation.Ctx) error {
		ctx.Spawn(spinTask)
		return nil
	}
	for i := 0; i < n; i++ {
		e.Add(spinTask)
	}
	st := execStepper{e}
	return &Run{
		Name:    "spin",
		Stepper: st,
		summary: stdSummary("spin", st),
		verify: func() (string, error) {
			return fmt.Sprintf("spin never drains by design (pending=%d)", e.Pending()), nil
		},
	}, nil
}
