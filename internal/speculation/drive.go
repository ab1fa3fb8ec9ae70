package speculation

import (
	"context"
	"fmt"

	"repro/internal/control"
	"repro/internal/stats"
)

// This file states the paper's Algorithm 1 on the real runtime once:
//
//	for work remains and nobody asked to stop:
//	    m ← ctrl.M()
//	    run one round / window with m
//	    ctrl.Observe(r)
//	    emit Sample
//
// Drive is the only entry point. The three modes differ in what "run"
// means, not in the loop: round mode (either executor) and colored mode
// without declarations share the step below; colored mode runs declared
// color classes before it (colored.go); async mode keeps the pool's participants
// working through one long dispatch and closes a window instead of a
// round (async.go), observing the controller from its window flush. Every mode takes the same Options
// and reports the same Sample and Result.

// Mode selects how Drive executes. The values are the wire names the
// specd service accepts, so a JobSpec mode converts directly.
type Mode string

const (
	// ModeRound launches m tasks, joins them at a barrier, observes r.
	// It is also what the zero Mode means.
	ModeRound Mode = "round"
	// ModeAsync runs barrier-free: m is an in-flight limit, served by
	// MaxParallel participants, and r comes from a sliding window of
	// settled outcomes.
	ModeAsync Mode = "async"
	// ModeColored colors the conflict graph the tasks declare and runs
	// its classes one round each until staleness trips; a work-set that
	// does not declare runs as ModeRound.
	ModeColored Mode = "colored"
)

// Rounder is the round-structured surface of an executor; *Executor and
// *OrderedExecutor both satisfy it.
type Rounder interface {
	// Pending returns the number of tasks awaiting execution.
	Pending() int
	// Round launches up to m tasks and waits for them to settle.
	Round(m int) RoundStats
}

// Options configures a Drive. The zero value drives rounds to drain.
type Options struct {
	Mode Mode
	// MaxSamples stops the drive after this many samples (0 = no cap);
	// an async drive still reports the window that was open at the stop.
	MaxSamples int
	// MaxCommits stops the drive once this many tasks have committed,
	// checked where samples close (0 = run to drain). Async attempts
	// already claimed still settle, so the total may overshoot, by less
	// than the in-flight limit.
	MaxCommits int64
	// OnRound receives every sample in index order on the goroutine that
	// called Drive, so it may block (a journal write). In async mode that
	// goroutine is worker 0, and samples are delivered by it between its
	// chunks: a blocking callback holds back one participant, never the
	// controller, which the other participants keep driving meanwhile — the
	// callback must not touch it.
	OnRound func(Sample)
}

// AsyncOptions, ColoredOptions, ColoredRound and ColoredResult are the
// names bench/ still spells; a [benchmark] PR retires them.
type (
	AsyncOptions   = Options
	ColoredOptions = Options
	ColoredRound   = Sample
	ColoredResult  = Result
)

// Sample is one controller-visible step of a drive: a round, a colored
// super-round, or an async window.
//
// M is the allocation the step ran with in round and colored mode (for a
// colored super-round, which takes no allocation, the number of tasks it
// launched); in async mode it is the in-flight limit after the step's
// observation, i.e. what the next window runs with. R is what the
// controller observed, except for colored super-rounds, which it never
// observes. An async window closes only on a commit, so like a round it
// never reports Committed == 0 unless it is the final partial one.
type Sample struct {
	Index     int // 0-based position in the drive
	M         int
	Launched  int // attempts settled in the step, failures included
	Committed int
	Aborted   int // conflict aborts (ordered: plus premature executions)
	Failed    int // panics and non-conflict errors
	Poisoned  int // failures that exhausted the retry budget in this step
	Spawned   int
	R         float64 // Aborted/Launched; failures are not contention
	Colored   bool    // a colored super-round
	Fallback  bool    // ... that tripped the staleness detector
	Colors    int     // ... and the size of its coloring
	// TotalCommitted is the drive's commit count at the end of the step.
	TotalCommitted int64
	// InFlight is the number of attempts still running when an async
	// window closed (0 at a barrier).
	InFlight int
}

// Result aggregates a drive.
type Result struct {
	Samples       int // samples emitted
	SpecRounds    int // ... of which speculative (observed by the controller)
	ColoredRounds int // ... of which colored super-rounds
	Colorings     int // declared colorings: one, and one more after a soft trip
	Fallbacks     int // colored→speculative transitions (staleness trips)
	Colors        int // color count of the most recent coloring

	Launched  int64
	Committed int64
	Aborted   int64
	Failed    int64
	Poisoned  int64
	Spawned   int64

	// ColoredCommits / ColoredAborts are the colored super-rounds' share;
	// in steady state ColoredAborts is 0.
	ColoredCommits int64
	ColoredAborts  int64

	Canceled bool // ctx ended the drive with work still pending
}

// ColoredConflictRatio returns aborts/launches over colored super-rounds
// only (~0 unless a staleness trip aborted work mid-class).
func (r *Result) ColoredConflictRatio() float64 {
	launched := r.ColoredCommits + r.ColoredAborts
	if launched == 0 {
		return 0
	}
	return float64(r.ColoredAborts) / float64(launched)
}

// drive is the state every mode shares: where to stop, where samples go.
type drive struct {
	ctx  context.Context
	ctrl control.Controller
	opts Options
	res  Result
}

// Drive runs Algorithm 1 on x under ctrl until the work-set drains, ctx
// ends, or an Options bound trips. A stop is signalled one way, through
// ctx, and is observed between steps: a round in flight always finishes,
// async attempts in flight always settle. ModeAsync and ModeColored need
// the unordered *Executor. One drive at a time per executor.
func Drive(ctx context.Context, x Rounder, ctrl control.Controller, opts Options) (*Result, error) {
	d := &drive{ctx: ctx, ctrl: ctrl, opts: opts}
	e, _ := x.(*Executor)
	switch {
	case opts.Mode == ModeRound || opts.Mode == "":
		for d.more(x.Pending()) {
			d.step(x)
		}
	case e == nil:
		return nil, fmt.Errorf("speculation: %T cannot be driven in mode %q", x, opts.Mode)
	case opts.Mode == ModeAsync:
		e.driveAsync(d)
	case opts.Mode == ModeColored:
		e.driveColored(d)
	default:
		return nil, fmt.Errorf("speculation: unknown mode %q", opts.Mode)
	}
	return &d.res, nil
}

// more reports whether a barrier drive should take another step. A
// drained work-set wins over a simultaneous stop request.
func (d *drive) more(pending int) bool {
	switch {
	case pending == 0:
		return false
	case d.ctx.Err() != nil:
		d.res.Canceled = true
		return false
	}
	return !d.capped(d.res.Committed)
}

// capped reports whether an Options bound has been reached, given the
// number of commits so far.
func (d *drive) capped(committed int64) bool {
	return d.opts.MaxSamples > 0 && d.res.Samples >= d.opts.MaxSamples ||
		d.opts.MaxCommits > 0 && committed >= d.opts.MaxCommits
}

// step is the loop body on a round-structured executor.
func (d *drive) step(x Rounder) {
	m := d.ctrl.M()
	st := x.Round(m)
	r := st.ConflictRatio()
	d.ctrl.Observe(r)
	d.emit(Sample{M: m, R: r}, st)
}

// emit records a sample and hands it to the subscriber.
func (d *drive) emit(s Sample, st RoundStats) {
	s = d.record(s, st)
	if d.opts.OnRound != nil {
		d.opts.OnRound(s)
	}
}

// record completes a sample — its index, the step's tallies, the running
// commit total — and folds it into the result.
func (d *drive) record(s Sample, st RoundStats) Sample {
	res := &d.res
	res.fold(st)
	if s.Colored {
		res.ColoredRounds++
		res.ColoredCommits += int64(st.Committed)
		res.ColoredAborts += int64(st.Aborted)
	} else {
		res.SpecRounds++
	}
	s.Launched, s.Committed, s.Aborted = st.Launched, st.Committed, st.Aborted
	s.Failed, s.Poisoned, s.Spawned = st.Failed, st.Poisoned, st.Spawned
	s.Index, s.TotalCommitted = res.Samples, res.Committed
	res.Samples++
	return s
}

func (r *Result) fold(st RoundStats) {
	r.Launched += int64(st.Launched)
	r.Committed += int64(st.Committed)
	r.Aborted += int64(st.Aborted)
	r.Failed += int64(st.Failed)
	r.Poisoned += int64(st.Poisoned)
	r.Spawned += int64(st.Spawned)
}

// AdaptiveResult is a drive's trajectory in the shape the CLIs and
// experiments report, with the cost accounting the paper's introduction
// motivates: every launched task occupies a processor for the round
// whether it commits or not, so wasted launches burn both time and
// power.
type AdaptiveResult struct {
	Controller string
	M          []int     // Sample.M per sample
	R          []float64 // Sample.R per sample
	Committed  []int     // commits per sample
	Rounds     int

	UsefulWork int // total committed tasks
	WastedWork int // total aborted and failed executions
	ProcRounds int // Σ launched: processor-time (and power) proxy
}

// Efficiency returns useful work per processor-round (1.0 = no waste,
// 0 for an empty run).
func (a *AdaptiveResult) Efficiency() float64 {
	if a.ProcRounds == 0 {
		return 0
	}
	return float64(a.UsefulWork) / float64(a.ProcRounds)
}

// MeanConflictRatio returns the unweighted mean of the per-sample
// conflict ratios (0 for an empty run).
func (a *AdaptiveResult) MeanConflictRatio() float64 {
	if len(a.R) == 0 {
		return 0
	}
	total := 0.0
	for _, r := range a.R {
		total += r
	}
	return total / float64(len(a.R))
}

// ConvergenceStep returns the first sample index after which m stays
// within ±tol (relative) of target for at least hold consecutive
// samples, or -1 if it never does. This is the §4.1 convergence metric
// ("in about 15 steps the controller converges close to the desired μ
// value").
func (a *AdaptiveResult) ConvergenceStep(target float64, tol float64, hold int) int {
	if target <= 0 {
		return -1
	}
	run := 0
	for i, m := range a.M {
		if stats.RelErr(float64(m), target) <= tol {
			run++
			if run >= hold {
				return i - hold + 1
			}
		} else {
			run = 0
		}
	}
	return -1
}

// SteadyStateStats returns mean and standard deviation of m over the
// last tail samples — the oscillation metric of the §4.1 ablations.
func (a *AdaptiveResult) SteadyStateStats(tail int) (mean, std float64) {
	tail = min(tail, len(a.M))
	var acc stats.Accumulator
	for _, m := range a.M[len(a.M)-tail:] {
		acc.Add(float64(m))
	}
	return acc.Mean(), acc.StdDev()
}

// Collect is Drive with the samples gathered into an AdaptiveResult; a
// caller's own opts.OnRound still sees every sample.
func Collect(ctx context.Context, x Rounder, ctrl control.Controller, opts Options) (*AdaptiveResult, *Result, error) {
	ar := &AdaptiveResult{Controller: ctrl.Name()}
	user := opts.OnRound
	opts.OnRound = func(s Sample) {
		ar.M = append(ar.M, s.M)
		ar.R = append(ar.R, s.R)
		ar.Committed = append(ar.Committed, s.Committed)
		if user != nil {
			user(s)
		}
	}
	res, err := Drive(ctx, x, ctrl, opts)
	if err != nil {
		return nil, nil, err
	}
	ar.Rounds = res.Samples
	ar.UsefulWork = int(res.Committed)
	ar.WastedWork = int(res.Aborted + res.Failed)
	ar.ProcRounds = int(res.Launched)
	return ar, res, nil
}

// RunAdaptive drains x in rounds under c, for at most maxRounds rounds
// (<= 0: no cap).
func RunAdaptive(x Rounder, c control.Controller, maxRounds int) *AdaptiveResult {
	ar, _, _ := Collect(context.Background(), x, c, Options{MaxSamples: maxRounds}) // round mode has no error
	return ar
}
