package workload

import (
	"context"
	"testing"

	"repro/internal/speculation"
)

// TestCapabilityRegistry pins the capability flags to the registry:
// CapableNames must agree with Supports, and the historical sets must
// not drift.
func TestCapabilityRegistry(t *testing.T) {
	want := map[Capability][]string{
		CapFault:   {"cc", "spin"},
		CapAsync:   {"cc", "spin", "stable"},
		CapColored: {"mesh", "cluster", "cc", "stable"},
	}
	for c, names := range want {
		got := CapableNames(c)
		if len(got) != len(names) {
			t.Fatalf("CapableNames(%b) = %v, want %v", c, got, names)
		}
		for i := range names {
			if got[i] != names[i] || !Supports(names[i], c) {
				t.Fatalf("CapableNames(%b) = %v, want %v, each with Supports true", c, got, names)
			}
		}
	}
	if Supports("nope", CapColored) || len(CapableNames(CapFault|CapAsync|CapColored)) != 1 {
		t.Error("capability lookups on unknown names or combined flags misbehave")
	}
}

// TestDrainColoredUnsupported: steppers without the colored drive (the
// ordered executor's) are rejected with a useful error.
func TestDrainColoredUnsupported(t *testing.T) {
	run, err := New("des", Params{Size: 60, Seed: 1, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stepper.Close()
	c, _ := NewController("hybrid", ControllerParams{Rho: 0.25})
	if _, _, err := DrainColored(context.Background(), run.Stepper, c, speculation.ColoredOptions{}); err == nil {
		t.Fatal("DrainColored accepted an ordered stepper")
	}
}

// driveColored drains the named workload in colored mode and returns
// the colored result plus the number of attempts its colored
// super-rounds launched. undeclared adds one keyed task that cannot
// declare a footprint, which keeps the whole drive on the learning path.
func driveColored(t *testing.T, name string, p Params, undeclared bool) (*Run, *speculation.ColoredResult, int64) {
	t.Helper()
	run, err := New(name, p)
	if err != nil {
		t.Fatal(err)
	}
	if undeclared {
		noop := speculation.TaskFunc(func(*speculation.Ctx) error { return nil })
		run.Stepper.(*speculation.Executor).Add(speculation.Keyed(-1, noop))
	}
	c, err := NewController("hybrid", ControllerParams{Rho: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var coloredLaunched int64
	_, cres, err := DrainColored(context.Background(), run.Stepper, c, speculation.ColoredOptions{
		OnRound: func(cr speculation.ColoredRound) {
			if cr.Colored {
				coloredLaunched += int64(cr.Launched)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Stepper.Pending() != 0 {
		t.Fatalf("colored drive left %d pending", run.Stepper.Pending())
	}
	return run, cres, coloredLaunched
}

// TestColoredEquivalence is the colored-mode acceptance run wired into
// `make equiv`, on the synthetic stable-conflict workload and for both
// sources of the conflict graph. Declared (the workload as registered):
// the drive never speculates — every commit is a colored one. Learned
// (one task that cannot declare keeps the drive on the learning path):
// it must reach the colored phase and commit the bulk of the work there.
// Either way the workload oracle holds exactly and the colored rounds
// eliminate the aborted work the barrier-free async drive of the same
// workload still pays: a colored super-round launches exactly one
// attempt per commit, the async drive, held at ρ = 0.25 by the same
// controller, well over one. (Which of the two is faster is the
// BenchmarkExecutorColored rows' question, not a 5 ms run's.) The learned
// leg runs at Parallel 1, where its rounds — and so how long learning
// takes — are a function of the seed alone.
func TestColoredEquivalence(t *testing.T) {
	p := Params{Size: 600, Seed: 11, Parallel: 4}

	for _, learned := range []bool{true, false} {
		lp := p
		if learned {
			lp.Parallel = 1
		}
		run, cres, coloredLaunched := driveColored(t, "stable", lp, learned)
		defer run.Stepper.Close()
		if cres.Fallbacks != 0 || cres.Degraded {
			t.Fatalf("learned=%v: stable workload tripped staleness or degraded: %+v", learned, cres)
		}
		if cres.ColoredAborts != 0 || cres.ColoredConflictRatio() != 0 || cres.ColoredCommits != coloredLaunched {
			t.Fatalf("learned=%v: colored rounds launched %d attempts for %d commits (%d aborts) on a stable-conflict workload",
				learned, coloredLaunched, cres.ColoredCommits, cres.ColoredAborts)
		}
		switch {
		case learned && (cres.Colorings == 0 || cres.SpecRounds == 0):
			t.Fatalf("the learning path never learned or never colored: %+v", cres)
		case learned && cres.ColoredCommits*2 < cres.Committed:
			t.Fatalf("colored phase committed %d of %d — the learning phase dominated",
				cres.ColoredCommits, cres.Committed)
		case !learned && (cres.SpecRounds != 0 || cres.ColoredCommits != cres.Committed):
			t.Fatalf("declared footprints, yet %d speculative rounds and %d of %d commits colored",
				cres.SpecRounds, cres.ColoredCommits, cres.Committed)
		}
		if detail, err := run.Verify(); err != nil {
			t.Fatalf("learned=%v: oracle after colored drive: %v", learned, err)
		} else if detail == "" {
			t.Fatal("empty oracle detail")
		}
	}

	// The async drive of identical params: same commits, more launches.
	asyncRun, err := New("stable", p)
	if err != nil {
		t.Fatal(err)
	}
	defer asyncRun.Stepper.Close()
	c, _ := NewController("hybrid", ControllerParams{Rho: 0.25})
	if _, err := DrainAsync(context.Background(), asyncRun.Stepper, c, speculation.AsyncOptions{}); err != nil {
		t.Fatal(err)
	}
	snap := asyncRun.Stepper.Snapshot()
	if snap.Pending != 0 {
		t.Fatalf("async drive left %d pending", snap.Pending)
	}
	perCommit := float64(snap.Launched) / float64(snap.Committed)
	t.Logf("async launched %d attempts for %d commits (%.2f per commit)", snap.Launched, snap.Committed, perCommit)
	if perCommit <= 1.2 {
		t.Errorf("async drive launched %.2f attempts per commit, want > 1.2: the contrast colored mode is measured against is gone", perCommit)
	}
}

// TestColoredAppWorkloads drives the colored-capable application
// workloads in hybrid mode and checks their oracles still hold: mesh
// and cluster footprints mutate as the structures evolve, so the drive
// may never leave the speculative phase, while cc declares its
// footprints and never enters it — the point is that colored mode costs
// correctness nothing on any of them.
func TestColoredAppWorkloads(t *testing.T) {
	for _, name := range []string{"mesh", "cluster", "cc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if !Supports(name, CapColored) {
				t.Fatalf("%s lost its CapColored flag", name)
			}
			run, cres, _ := driveColored(t, name, Params{Size: smallSize[name], Seed: 1, Parallel: 2}, false)
			defer run.Stepper.Close()
			if cres.Degraded {
				t.Fatalf("%s degraded: its tasks must be conflict-keyed", name)
			}
			if _, err := run.Verify(); err != nil {
				t.Fatalf("oracle after colored drive: %v", err)
			}
		})
	}
}
