// Package workload is the registry naming every application workload
// and every processor-allocation controller behind constructor
// functions. It replaces the construction switch ladders that used to
// be duplicated across cmd/apprun and cmd/controlsim, and gives the
// specd service one place to instantiate a (workload, controller) pair
// from wire-level names.
//
// A workload instance is a Run: the executor holding its tasks (as a
// Stepper, under either schedule), ready
// for speculation.Drive, plus the app-specific verification oracle and
// the CLI report. Construction is deterministic in Params.Seed — two Runs built
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
	// Parallel bounds how many attempts run at once, in every mode: it is
	// the executor's participants, the caller included (1 starts no
	// goroutine; 0 or less = GOMAXPROCS).
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

// Stepper is what a workload hands to speculation.Drive: the executor's
// round surface, its race-safe counters for monitors, and its release.
// *speculation.Executor, under either schedule, is one.
type Stepper interface {
	speculation.Rounder
	// Snapshot returns pending count plus cumulative counters in one
	// race-safe call.
	Snapshot() speculation.Snapshot
	// Close releases executor resources (the context cache).
	Close()
}

// Run is an instantiated workload ready to be driven.
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

// Drain, DrainAsync and DrainColored are speculation.Collect with the
// mode filled in — the spellings bench/ uses. maxRounds <= 0 means no
// cap. The async and colored forms fail on a stepper that is not the
// unordered executor; whether a *workload* may be driven that way is
// Supports' question (an application's commit actions may assume the
// round barrier).
func Drain(ctx context.Context, s Stepper, c control.Controller, maxRounds int) *speculation.AdaptiveResult {
	res, _, _ := speculation.Collect(ctx, s, c, speculation.Options{MaxSamples: maxRounds}) // round mode has no error
	return res
}

func DrainAsync(ctx context.Context, s Stepper, c control.Controller, opts speculation.AsyncOptions) (*speculation.AdaptiveResult, error) {
	opts.Mode = speculation.ModeAsync
	res, _, err := speculation.Collect(ctx, s, c, opts)
	return res, err
}

func DrainColored(ctx context.Context, s Stepper, c control.Controller, opts speculation.ColoredOptions) (*speculation.AdaptiveResult, *speculation.ColoredResult, error) {
	opts.Mode = speculation.ModeColored
	return speculation.Collect(ctx, s, c, opts)
}

// stdRun wraps an unordered workload's executor as a Run: pool size and
// retry budget from p, the report line the unordered workloads share.
func stdRun(name string, e *speculation.Executor, p Params, verify func() (string, error)) (*Run, error) {
	e.MaxParallel, e.TaskRetries = p.Parallel, p.TaskRetries
	return &Run{
		Name:    name,
		Stepper: e,
		verify:  verify,
		summary: func(res *speculation.AdaptiveResult) string {
			snap := e.Snapshot()
			return fmt.Sprintf("%-8s rounds=%-6d committed=%-7d aborted=%-6d conflict-ratio=%.3f mean-m=%.1f",
				name, res.Rounds, snap.Committed, snap.Aborted, snap.ConflictRatio(), meanM(res))
		},
	}, nil
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

// Capability flags a registry entry declares about its workload, next to
// its constructor; Supports is the one predicate over them.
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
	// CapColored: the workload may be driven in colored mode, which is
	// declare-or-round. Tasks that declare their footprints
	// (speculation.Footprinted: cc, stable) run one round per color
	// class, so their operators follow the cautious contract every round
	// relies on: the parallel phase only reads shared state, and
	// mutations are deferred to serially-run, re-validating commit
	// actions. A workload whose tasks do not declare (mesh, cluster) runs
	// in rounds, exactly as in round mode.
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

// minSize is the smallest Size a workload's input generator accepts: a
// Boruvka graph has at least one vertex, a 3-SAT formula at least 3
// variables, a flow network (Size/2 nodes) at least a source and a sink.
var minSize = map[string]int{"boruvka": 1, "sp": 3, "maxflow": 4}

// Validate rejects, without building anything, parameters no instance
// of the named workload can be built from: a Size under the generator's
// minimum, or, for the random-graph workloads, which draw Size·Degree/2
// distinct edges, an average degree above the Size−1 of a simple graph.
// Admission paths call it so an impossible request is refused rather
// than queued; New calls it too.
func Validate(name string, p Params) error {
	if min := minSize[name]; p.Size < min {
		return fmt.Errorf("workload: %q needs size >= %d, got %d", name, min, p.Size)
	}
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
			if p.Fault != nil && !Supports(name, CapFault) {
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

// seededExecutor builds the executor the synthetic workloads populate:
// uniform picks drawn from r (nil = the executor's default order) and
// p's fault injector, if any, in place before the first task is added.
// The injector's TransientAttempts is clamped to the retry budget stdRun
// will set, so a transient fault can never exhaust it and accidentally
// poison.
func seededExecutor(r *rng.Rand, p Params) (*speculation.Executor, error) {
	var pick func(n int) int
	if r != nil {
		var mu sync.Mutex // r is not safe for concurrent use
		pick = func(n int) int {
			mu.Lock()
			defer mu.Unlock()
			return r.Intn(n)
		}
	}
	e := speculation.NewExecutor(pick)
	if p.Fault == nil {
		return e, nil
	}
	c := *p.Fault
	budget := p.TaskRetries
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
		return nil, err
	}
	e.WrapTask = in.WrapTask
	return e, nil
}

func newMesh(p Params) (*Run, error) {
	r := rng.New(p.Seed)
	m := mesh.NewSquare(0, 1)
	for i := 0; i < p.Size/10; i++ {
		m.Insert(mesh.Point{X: 0.01 + 0.98*r.Float64(), Y: 0.01 + 0.98*r.Float64()})
	}
	q := mesh.Quality{MaxArea: 1.0 / float64(p.Size)}
	ref := mesh.NewSpeculativeRefiner(m, q, func(n int) int { return r.Intn(n) })
	return stdRun("mesh", ref.Executor(), p, func() (string, error) {
		return fmt.Sprintf("inserted=%d triangles=%d bad-remaining=%d",
			ref.Inserted, m.NumTriangles(), len(m.BadTriangles(q))), nil
	})
}

func newBoruvka(p Params) (*Run, error) {
	r := rng.New(p.Seed)
	g := boruvka.NewRandomConnected(r, p.Size, p.Size*3)
	s := boruvka.NewSpeculativeMSF(g, func(n int) int { return r.Intn(n) })
	return stdRun("boruvka", s.Executor(), p, func() (string, error) {
		msf := s.Result()
		if err := boruvka.Verify(g, msf); err != nil {
			return "", err
		}
		return fmt.Sprintf("msf-edges=%d weight=%.3f (verified against Kruskal)",
			len(msf.Edges), msf.Weight), nil
	})
}

func newSP(p Params) (*Run, error) {
	r := rng.New(p.Seed)
	f := sp.NewRandom3SAT(r, p.Size, int(float64(p.Size)*2.5))
	state := sp.NewState(f, r.Split())
	s := sp.NewSpeculativeSP(state, 1e-4, func(n int) int { return r.Intn(n) })
	return stdRun("sp", s.Executor(), p, func() (string, error) {
		return fmt.Sprintf("clause-updates=%d final-sweep-residual=%.2g",
			s.Updates, state.Sweep()), nil
	})
}

func newCluster(p Params) (*Run, error) {
	r := rng.New(p.Seed)
	cl := cluster.New(cluster.RandomPoints(r, p.Size))
	s := cluster.NewSpeculative(cl, 1, func(n int) int { return r.Intn(n) })
	return stdRun("cluster", s.Executor(), p, func() (string, error) {
		if err := cl.CheckDendrogram(p.Size); err != nil {
			return "", err
		}
		return fmt.Sprintf("merges=%d clusters-left=%d (dendrogram verified)",
			len(cl.Merges), cl.NumClusters()), nil
	})
}

func newDES(p Params) (*Run, error) {
	// Ordered workload (§5 future work): events commit chronologically.
	means := []float64{0.2, 0.15, 0.25, 0.2, 0.1, 0.3}
	net := des.NewTandem(p.Seed, means...)
	sim := des.NewSpeculativeSim(net, p.Size/2, 0.05)
	e := sim.Executor()
	e.MaxParallel, e.TaskRetries = p.Parallel, p.TaskRetries
	return &Run{
		Name:    "des",
		Stepper: e,
		summary: func(res *speculation.AdaptiveResult) string {
			return fmt.Sprintf("%-8s rounds=%-6d committed=%-7d conflicts=%-5d premature=%-6d wasted=%.3f",
				"des", res.Rounds, e.TotalCommitted(), e.TotalAborted()-e.TotalPremature(), e.TotalPremature(),
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
	return stdRun("maxflow", s.Executor(), p, func() (string, error) {
		if got := s.FlowValue(); got != oracle {
			return "", fmt.Errorf("flow %d vs oracle %d", got, oracle)
		}
		return fmt.Sprintf("max-flow=%d (verified against Edmonds-Karp)", s.FlowValue()), nil
	})
}

// newCC builds the synthetic CC-graph workload of the paper's model: one
// task per node, adjacent tasks conflict, committed tasks leave the
// graph — the draining workload cmd/controlsim's efficiency experiments
// run. The construction sequence (rng, graph, executor seed split)
// matches those experiments exactly; the executor comes from
// seededExecutor rather than speculation.NewGraphExecutor so the
// fault-injection hook is in place before Populate adds the node tasks.
func newCC(p Params) (*Run, error) {
	r := rng.New(p.Seed)
	g := graph.RandomWithAvgDegree(r, p.Size, degree("cc", p))
	wl := speculation.NewGraphWorkload(g)
	e, err := seededExecutor(r.Split(), p)
	if err != nil {
		return nil, err
	}
	wl.Populate(e)
	return stdRun("cc", e, p, func() (string, error) {
		if left := wl.Graph().NumNodes(); left > 0 {
			if e.TotalPoisoned() > 0 {
				return fmt.Sprintf("nodes-processed=%d poisoned=%d (degraded: quarantined tasks left %d nodes unprocessed)",
					p.Size-left, e.TotalPoisoned(), left), nil
			}
			return "", fmt.Errorf("%d nodes unprocessed", left)
		}
		return fmt.Sprintf("nodes-processed=%d (graph drained)", p.Size), nil
	})
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
	e, err := seededExecutor(nil, p)
	if err != nil {
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
	return stdRun("spin", e, p, func() (string, error) {
		return fmt.Sprintf("spin never drains by design (pending=%d)", e.Pending()), nil
	})
}
