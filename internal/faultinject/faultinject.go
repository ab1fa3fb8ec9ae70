// Package faultinject provides deterministic fault injection for the
// speculation runtime. An Injector wraps tasks as they enter an
// executor's work-set (via Executor.WrapTask) and makes some of them
// panic, return errors, or stall, according to a seeded plan. Only the
// unordered executor has the hook: workloads that carry CapFault are
// synthetic, and no ordered workload does.
//
// Determinism is the whole point: attempt IDs, round composition, and
// lock-race winners all depend on goroutine scheduling, so faults keyed
// on any of those would make chaos tests flaky. Instead each wrapped
// task receives a plan derived purely from its wrap-order index — the
// order tasks are Added, which for a fixed workload build is
// deterministic even when execution is not. A "poison" plan fails every
// attempt, so a poison-planned task is guaranteed to exhaust any retry
// budget and land in the executor's quarantine. That makes
// PoisonPlanCount an exact predictor of the poisoned-task count for
// workloads with a fixed task population (no commit-time spawns).
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/internal/speculation"
)

// ErrInjected is the base error for injected (non-panic) task failures.
// Injected failures wrap it, so errors.Is(err, ErrInjected) identifies
// them in failure records and logs.
var ErrInjected = errors.New("faultinject: injected failure")

// Config describes a fault plan. Rates are probabilities in [0, 1]
// applied per task (not per attempt); PanicRate + ErrorRate +
// PoisonRate must not exceed 1.
type Config struct {
	// Seed selects the fault plan. The same Config always picks the
	// same victims in wrap order.
	Seed uint64

	// PanicRate is the fraction of tasks that panic transiently: the
	// task panics on its first 1..TransientAttempts attempts, then
	// succeeds, exercising failure + retry without poisoning.
	PanicRate float64

	// ErrorRate is like PanicRate but the task returns an error
	// (wrapping ErrInjected) instead of panicking.
	ErrorRate float64

	// PoisonRate is the fraction of tasks that fail every attempt
	// (half panic, half error, chosen per task) and therefore exhaust
	// any retry budget and end up quarantined.
	PoisonRate float64

	// TransientAttempts bounds how many attempts a transient victim
	// fails before recovering (each victim draws 1..TransientAttempts).
	// It must stay at or below the executor's retry budget or a
	// transient fault could accidentally poison; callers should clamp
	// it. Zero disables transient faults even if rates are set.
	TransientAttempts int

	// DelayRate is the fraction of tasks that sleep Delay on every
	// attempt, independent of the failure bands above.
	DelayRate float64

	// Delay is how long delayed tasks stall per attempt.
	Delay time.Duration
}

// Validate reports whether the rates form a sane plan.
func (c *Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"panic_rate", c.PanicRate}, {"error_rate", c.ErrorRate}, {"poison_rate", c.PoisonRate}, {"delay_rate", c.DelayRate}} {
		if !(0 <= r.v && r.v <= 1) { // written so NaN fails too
			return fmt.Errorf("faultinject: %s %v outside [0,1]", r.name, r.v)
		}
	}
	if s := c.PanicRate + c.ErrorRate + c.PoisonRate; s > 1 {
		return fmt.Errorf("faultinject: failure rates sum to %v > 1", s)
	}
	if c.TransientAttempts < 0 {
		return fmt.Errorf("faultinject: transient_attempts %d < 0", c.TransientAttempts)
	}
	if c.Delay < 0 {
		return fmt.Errorf("faultinject: delay %v < 0", c.Delay)
	}
	return nil
}

// plan is the fate assigned to one wrapped task.
type plan struct {
	// fails is how many leading attempts fail; poisoned tasks get a
	// huge value so every attempt fails.
	fails   int
	panics  bool // fail by panicking rather than returning an error
	poison  bool
	delayed bool
}

const poisonFails = 1 << 30

// planFor derives task i's fate. One uniform draw selects the failure
// band so the three rates partition [0,1); further draws shape the
// failure. Each task gets its own splitmix-seeded stream, so plans are
// independent of each other and of how many tasks exist.
func (c *Config) planFor(i int64) plan {
	r := rng.New((c.Seed ^ (uint64(i) * 0x9e3779b97f4a7c15)) + 0x2545f4914f6cdd1d)
	var p plan
	u := r.Float64()
	switch {
	case u < c.PoisonRate:
		p.poison = true
		p.fails = poisonFails
		p.panics = r.Bool()
	case u < c.PoisonRate+c.PanicRate && c.TransientAttempts > 0:
		p.fails = 1 + r.Intn(c.TransientAttempts)
		p.panics = true
	case u < c.PoisonRate+c.PanicRate+c.ErrorRate && c.TransientAttempts > 0:
		p.fails = 1 + r.Intn(c.TransientAttempts)
	}
	p.delayed = r.Float64() < c.DelayRate
	return p
}

// PoisonPlanCount returns how many of the first n wrapped tasks are
// poison-planned. For a workload that wraps exactly n tasks and spawns
// none, this equals the executor's final poisoned-task count exactly.
func (c *Config) PoisonPlanCount(n int) int {
	count := 0
	for i := int64(0); i < int64(n); i++ {
		if c.planFor(i).poison {
			count++
		}
	}
	return count
}

// Injector hands out per-task fault plans and tallies what it did.
// WrapTask is safe for concurrent use; the wrap-order index is
// allocated atomically, so determinism requires that tasks be wrapped
// (Added) in a deterministic order — true for single-goroutine
// workload construction.
type Injector struct {
	cfg Config

	next    atomic.Int64 // wrap-order index allocator
	panics  atomic.Int64 // injected panics (attempts, not tasks)
	errors  atomic.Int64 // injected errors (attempts, not tasks)
	delays  atomic.Int64 // injected delays (attempts)
	poisons atomic.Int64 // poison-planned tasks wrapped
}

// New validates cfg and builds an Injector.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg}, nil
}

// Panics returns the number of injected panic attempts so far.
func (in *Injector) Panics() int64 { return in.panics.Load() }

// Errors returns the number of injected error attempts so far.
func (in *Injector) Errors() int64 { return in.errors.Load() }

// Delays returns the number of injected delay attempts so far.
func (in *Injector) Delays() int64 { return in.delays.Load() }

// PoisonPlanned returns how many wrapped tasks carry a poison plan.
func (in *Injector) PoisonPlanned() int64 { return in.poisons.Load() }

// fault executes task i's share of attempt a: a delay, then a panic or
// error if this attempt is within the plan's failing prefix. Returns
// nil when the underlying task should run.
func (in *Injector) fault(p plan, attempt int64) error {
	if p.delayed {
		in.delays.Add(1)
		time.Sleep(in.cfg.Delay)
	}
	if attempt > int64(p.fails) {
		return nil
	}
	if p.panics {
		in.panics.Add(1)
		panic(fmt.Sprintf("faultinject: planned panic (attempt %d/%d)", attempt, p.fails))
	}
	in.errors.Add(1)
	return fmt.Errorf("%w (attempt %d/%d)", ErrInjected, attempt, p.fails)
}

func (in *Injector) newPlan() plan {
	p := in.cfg.planFor(in.next.Add(1) - 1)
	if p.poison {
		in.poisons.Add(1)
	}
	return p
}

// faultedTask wraps an unordered task with a fault plan.
type faultedTask struct {
	inner    speculation.Task
	in       *Injector
	plan     plan
	attempts atomic.Int64
}

func (t *faultedTask) Run(ctx *speculation.Ctx) error {
	if err := t.in.fault(t.plan, t.attempts.Add(1)); err != nil {
		return err
	}
	return t.inner.Run(ctx)
}

// WrapTask is the Executor.WrapTask hook: assign the next plan.
func (in *Injector) WrapTask(t speculation.Task) speculation.Task {
	return &faultedTask{inner: t, in: in, plan: in.newPlan()}
}
