package speculation

import (
	"context"
	"errors"
	"testing"

	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/rng"
)

// driven is a drive's result plus every sample it emitted, in order.
type driven struct {
	*Result
	Trajectory []Sample
}

// driveAll is Drive for tests: it keeps the samples and panics on the
// only error Drive has (a mode the executor cannot run).
func driveAll(ctx context.Context, x Rounder, ctrl control.Controller, opts Options) driven {
	var d driven
	user := opts.OnRound
	opts.OnRound = func(s Sample) {
		d.Trajectory = append(d.Trajectory, s)
		if user != nil {
			user(s)
		}
	}
	res, err := Drive(ctx, x, ctrl, opts)
	if err != nil {
		panic(err)
	}
	d.Result = res
	return d
}

// scripted is a controller that allocates ms[i] for its i-th step and
// counts what it is asked and told.
type scripted struct {
	ms       []int
	observed []float64
}

func (c *scripted) M() int {
	if i := len(c.observed); i < len(c.ms) {
		return c.ms[i]
	}
	return c.ms[len(c.ms)-1]
}
func (c *scripted) Observe(r float64) { c.observed = append(c.observed, r) }
func (c *scripted) Name() string      { return "scripted" }

var allModes = []Mode{ModeRound, ModeAsync, ModeColored}

func ccExecutor(seed uint64, n int, d float64) *Executor {
	r := rng.New(seed)
	return NewGraphExecutor(NewGraphWorkload(graph.RandomWithAvgDegree(r, n, d)), r.Split())
}

// TestDriveSampleInvariants: whatever the mode, samples arrive numbered
// 0.., their counts sum to the result, TotalCommitted is the running
// commit total, and the controller was observed exactly once per
// speculative sample.
func TestDriveSampleInvariants(t *testing.T) {
	for _, mode := range allModes {
		t.Run(string(mode), func(t *testing.T) {
			e := ccExecutor(3, 600, 8)
			defer e.Close()
			ctrl := &scripted{ms: []int{4, 8, 16, 32}}
			res := driveAll(context.Background(), e, ctrl, Options{Mode: mode})
			if e.Pending() != 0 || res.Canceled {
				t.Fatalf("did not drain: pending=%d canceled=%v", e.Pending(), res.Canceled)
			}
			if res.Samples != len(res.Trajectory) || res.Samples != res.SpecRounds+res.ColoredRounds {
				t.Fatalf("Samples=%d, %d delivered, %d spec + %d colored",
					res.Samples, len(res.Trajectory), res.SpecRounds, res.ColoredRounds)
			}
			if len(ctrl.observed) != res.SpecRounds {
				t.Fatalf("controller observed %d times over %d speculative samples", len(ctrl.observed), res.SpecRounds)
			}
			var sum Result
			for i, s := range res.Trajectory {
				if s.Index != i {
					t.Fatalf("sample %d delivered at position %d", s.Index, i)
				}
				sum.fold(RoundStats{Launched: s.Launched, Committed: s.Committed, Aborted: s.Aborted,
					Failed: s.Failed, Poisoned: s.Poisoned, Spawned: s.Spawned})
				if s.TotalCommitted != sum.Committed {
					t.Fatalf("sample %d: TotalCommitted=%d, running sum %d", i, s.TotalCommitted, sum.Committed)
				}
				if s.Launched != s.Committed+s.Aborted+s.Failed {
					t.Fatalf("sample %d does not balance: %+v", i, s)
				}
			}
			if sum.Launched != res.Launched || sum.Committed != res.Committed || sum.Aborted != res.Aborted {
				t.Fatalf("samples sum to %+v, result says %+v", sum, *res.Result)
			}
			if res.Committed != 600 || e.TotalCommitted() != 600 {
				t.Fatalf("committed %d (executor %d), want 600", res.Committed, e.TotalCommitted())
			}
		})
	}
}

// TestDriveSampleM pins what Sample.M means: at a barrier, the
// allocation the round ran with; without one, the in-flight limit after
// the window's observation.
func TestDriveSampleM(t *testing.T) {
	ms := []int{3, 5, 7, 9, 11}
	for _, mode := range []Mode{ModeRound, ModeAsync} {
		e := NewExecutor(nil)
		for i := 0; i < 2000; i++ {
			e.Add(TaskFunc(func(*Ctx) error { return nil }))
		}
		ctrl := &scripted{ms: ms}
		res := driveAll(context.Background(), e, ctrl, Options{Mode: mode, MaxSamples: 4})
		e.Close()
		// An async drive adds the window that was open when the cap hit.
		if res.Samples < 4 || res.Samples > 5 || mode == ModeRound && res.Samples != 4 || res.Canceled {
			t.Fatalf("%s: %d samples (canceled=%v), want the cap of 4", mode, res.Samples, res.Canceled)
		}
		for i, s := range res.Trajectory[:4] {
			want := ms[i]
			if mode == ModeAsync {
				want = ms[i+1]
			}
			if s.M != want {
				t.Errorf("%s sample %d: M=%d, want %d", mode, i, s.M, want)
			}
			if mode == ModeRound && s.Launched != ms[i] {
				t.Errorf("round %d launched %d with m=%d", i, s.Launched, ms[i])
			}
		}
	}
}

// TestDriveNoPhantomRound: a stop that lands while a sample is being
// delivered ends the drive there. There is no window between the stop
// check and the round in which an empty round could be observed and
// recorded, so the controller is observed exactly once per sample and no
// sample is empty.
func TestDriveNoPhantomRound(t *testing.T) {
	for _, mode := range allModes {
		t.Run(string(mode), func(t *testing.T) {
			// Every commit respawns its task, so only the stop ends the drive.
			e := NewExecutor(nil)
			defer e.Close()
			var spin TaskFunc
			spin = func(ctx *Ctx) error {
				ctx.Spawn(spin)
				return nil
			}
			for i := 0; i < 64; i++ {
				e.Add(spin)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctrl := &scripted{ms: []int{8}}
			res := driveAll(ctx, e, ctrl, Options{Mode: mode, OnRound: func(s Sample) {
				if s.Index == 2 {
					cancel()
				}
			}})
			if !res.Canceled || e.Pending() != 64 {
				t.Fatalf("canceled=%v pending=%d, want a canceled drive with all 64 tasks live", res.Canceled, e.Pending())
			}
			if mode != ModeAsync && res.Samples != 3 {
				t.Fatalf("%d samples after a stop during sample 2, want 3", res.Samples)
			}
			if len(ctrl.observed) != res.Samples {
				t.Fatalf("controller observed %d times over %d samples", len(ctrl.observed), res.Samples)
			}
			for _, s := range res.Trajectory {
				if s.Launched == 0 {
					t.Fatalf("empty sample recorded: %+v", s)
				}
			}
		})
	}
}

// TestDriveDrainedBeatsStop: a context that is already over does not
// turn a finished drive into a canceled one.
func TestDriveDrainedBeatsStop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range allModes {
		e := NewExecutor(nil)
		res := driveAll(ctx, e, &scripted{ms: []int{2}}, Options{Mode: mode})
		if res.Canceled || res.Samples != 0 {
			t.Errorf("%s on an empty work-set: canceled=%v samples=%d", mode, res.Canceled, res.Samples)
		}
	}
}

// TestDriveWastedWorkCountsFailures: Collect's WastedWork is aborts plus
// failed attempts, in every mode, while only aborts reach the
// controller.
func TestDriveWastedWorkCountsFailures(t *testing.T) {
	for _, mode := range allModes {
		e := NewExecutor(nil)
		e.TaskRetries = 3
		for i := 0; i < 40; i++ {
			fails := 2
			e.Add(TaskFunc(func(*Ctx) error {
				if fails > 0 {
					fails--
					return errors.New("transient")
				}
				return nil
			}))
		}
		ctrl := &scripted{ms: []int{1}}
		ar, res, err := Collect(context.Background(), e, ctrl, Options{Mode: mode})
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 80 || res.Aborted != 0 || ar.UsefulWork != 40 {
			t.Fatalf("%s: failed=%d aborted=%d useful=%d, want 80/0/40", mode, res.Failed, res.Aborted, ar.UsefulWork)
		}
		if ar.WastedWork != 80 || ar.ProcRounds != ar.UsefulWork+ar.WastedWork {
			t.Errorf("%s: wasted=%d proc-rounds=%d, want 80 and useful+wasted", mode, ar.WastedWork, ar.ProcRounds)
		}
		for _, r := range ctrl.observed {
			if r != 0 {
				t.Fatalf("%s: controller saw r=%v from failures alone", mode, r)
			}
		}
	}
}

// TestDriveModeNeedsUnorderedExecutor: the ordered executor has rounds
// and nothing else.
func TestDriveModeNeedsUnorderedExecutor(t *testing.T) {
	e := NewOrderedExecutor()
	e.Add(&testOrderedTask{key: key(1)})
	for _, mode := range []Mode{ModeAsync, ModeColored, "warp"} {
		if res, err := Drive(context.Background(), e, &scripted{ms: []int{2}}, Options{Mode: mode}); err == nil {
			t.Errorf("mode %q on the ordered executor: no error (result %+v)", mode, res)
		}
	}
	if _, err := Drive(context.Background(), NewExecutor(nil), &scripted{ms: []int{2}}, Options{Mode: "warp"}); err == nil {
		t.Error("unknown mode accepted")
	}
	if e.Pending() != 1 {
		t.Fatal("a refused drive touched the work-set")
	}
	res, err := Drive(context.Background(), e, &scripted{ms: []int{2}}, Options{})
	if err != nil || res.Committed != 1 {
		t.Fatalf("zero Options on the ordered executor: %+v, %v", res, err)
	}
}
