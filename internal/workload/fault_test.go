package workload

import (
	"context"
	"testing"

	"repro/internal/faultinject"
)

// TestSpinNeverDrains: the spin workload keeps Pending constant across
// rounds — the property deadline and cancellation tests depend on.
func TestSpinNeverDrains(t *testing.T) {
	run, err := New("spin", Params{Size: 8, Seed: 1, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stepper.Close()
	for i := 0; i < 20; i++ {
		rr := run.Stepper.Round(4)
		if rr.Committed == 0 {
			t.Fatalf("round %d committed nothing: %+v", i, rr)
		}
	}
	if p := run.Stepper.Pending(); p != 8 {
		t.Fatalf("pending %d after 20 rounds, want constant 8", p)
	}
	if detail, err := run.Verify(); err != nil || detail == "" {
		t.Fatalf("spin verify: %q, %v", detail, err)
	}
}

// TestCanceledContextStopsDrain: Drain returns at the round barrier
// once its context is canceled, even on a workload that never empties.
func TestCanceledContextStopsDrain(t *testing.T) {
	run, err := New("spin", Params{Size: 4, Seed: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stepper.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := NewController("hybrid", ControllerParams{Rho: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	res := Drain(ctx, run.Stepper, c, 1<<20)
	if res.Rounds != 0 {
		t.Fatalf("Drain ran %d rounds on a canceled context", res.Rounds)
	}
	// The stop is the drive's business: a round itself takes no context
	// and always runs, which is what closes the window for phantom rounds.
	if rr := run.Stepper.Round(4); rr.Launched != 4 {
		t.Fatalf("a direct Round launched %d, want 4", rr.Launched)
	}
}

// TestCCFaultInjectionPoisonCountExact: the end-to-end determinism
// contract at the workload layer — a cc run with poison injection
// drains (degraded) with exactly PoisonPlanCount quarantined tasks.
func TestCCFaultInjectionPoisonCountExact(t *testing.T) {
	fault := &faultinject.Config{
		Seed: 77, PanicRate: 0.05, ErrorRate: 0.05, PoisonRate: 0.04,
		TransientAttempts: 2,
	}
	const size = 300
	want := fault.PoisonPlanCount(size)
	if want == 0 {
		t.Fatal("seed 77 plans no poisons at size 300; adjust the test")
	}
	for trial := 0; trial < 2; trial++ {
		run, err := New("cc", Params{
			Size: size, Seed: 9, Parallel: 4, TaskRetries: 3, Fault: fault,
		})
		if err != nil {
			t.Fatal(err)
		}
		c, _ := NewController("hybrid", ControllerParams{Rho: 0.25})
		res := Drain(context.Background(), run.Stepper, c, 1<<20)
		snap := run.Stepper.Snapshot()
		if run.Stepper.Pending() != 0 {
			t.Fatalf("trial %d: cc did not drain under injection", trial)
		}
		run.Stepper.Close()
		if snap.Poisoned != int64(want) {
			t.Fatalf("trial %d: poisoned %d, want exactly %d", trial, snap.Poisoned, want)
		}
		if snap.Launched != snap.Committed+snap.Aborted+snap.Failed {
			t.Fatalf("trial %d: unbalanced snapshot %+v", trial, snap)
		}
		if res.WastedWork == 0 {
			t.Fatalf("trial %d: injection produced no wasted work", trial)
		}
		detail, err := run.Verify()
		if err != nil {
			t.Fatalf("trial %d: degraded verify errored: %v", trial, err)
		}
		if detail == "" {
			t.Fatalf("trial %d: empty degraded verify detail", trial)
		}
	}
}

// TestFaultRejectedForAppWorkloads: only the synthetic workloads can
// host an injector.
func TestFaultRejectedForAppWorkloads(t *testing.T) {
	fault := &faultinject.Config{Seed: 1, ErrorRate: 0.1, TransientAttempts: 1}
	for _, name := range Names() {
		_, err := New(name, Params{Size: 50, Seed: 1, Fault: fault})
		if Supports(name, CapFault) {
			if err != nil {
				t.Errorf("%s: fault rejected: %v", name, err)
			}
		} else if err == nil {
			t.Errorf("%s: fault accepted but unsupported", name)
		}
	}
}
