package workload

import (
	"context"
	"testing"
	"time"

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
// the colored result plus the steady-state colored commits/sec —
// commits made in colored rounds over the wall-clock time those rounds
// took (round boundaries timestamped via OnRound). Zero if the drive
// never ran a colored round. undeclared adds one keyed task that cannot
// declare a footprint, which keeps the whole drive on the learning path.
func driveColored(t *testing.T, name string, p Params, undeclared bool) (*Run, *speculation.ColoredResult, float64) {
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
	var coloredSecs float64
	var coloredCommits int64
	last := time.Now()
	_, cres, err := DrainColored(context.Background(), run.Stepper, c, speculation.ColoredOptions{
		OnRound: func(cr speculation.ColoredRound) {
			now := time.Now()
			if cr.Colored {
				coloredSecs += now.Sub(last).Seconds()
				coloredCommits += int64(cr.Committed)
			}
			last = now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Stepper.Pending() != 0 {
		t.Fatalf("colored drive left %d pending", run.Stepper.Pending())
	}
	rate := 0.0
	if coloredSecs > 0 {
		rate = float64(coloredCommits) / coloredSecs
	}
	return run, cres, rate
}

// TestColoredEquivalence is the colored-mode acceptance run wired into
// `make equiv`, on the synthetic stable-conflict workload and for both
// sources of the conflict graph. Declared (the workload as registered):
// the drive never speculates — every commit is a colored one. Learned
// (one task that cannot declare keeps the drive on the learning path):
// it must reach the colored phase and commit the bulk of the work there.
// Either way the colored rounds abort nothing, the workload oracle holds
// exactly, and the colored phase is not slower than the barrier-free
// async drive of the same workload — colored rounds eliminate the
// aborted work and per-task lock traffic async still pays.
func TestColoredEquivalence(t *testing.T) {
	p := Params{Size: 600, Seed: 11, Parallel: 4}

	coloredRate := map[bool]float64{} // by source: learned, declared
	for _, learned := range []bool{true, false} {
		run, cres, rate := driveColored(t, "stable", p, learned)
		defer run.Stepper.Close()
		coloredRate[learned] = rate
		if cres.Fallbacks != 0 || cres.Degraded {
			t.Fatalf("learned=%v: stable workload tripped staleness or degraded: %+v", learned, cres)
		}
		if cres.ColoredAborts != 0 || cres.ColoredConflictRatio() != 0 {
			t.Fatalf("learned=%v: colored rounds aborted %d tasks on a stable-conflict workload", learned, cres.ColoredAborts)
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

	// Steady-state throughput floor against async on identical params.
	// The benchmark (BenchmarkExecutorColored) records ≥2× on stable
	// workloads; here a plain ≥ keeps CI robust to scheduling noise.
	asyncRun, err := New("stable", p)
	if err != nil {
		t.Fatal(err)
	}
	defer asyncRun.Stepper.Close()
	c, _ := NewController("hybrid", ControllerParams{Rho: 0.25})
	start := time.Now()
	if _, err := DrainAsync(context.Background(), asyncRun.Stepper, c, speculation.AsyncOptions{}); err != nil {
		t.Fatal(err)
	}
	asyncSecs := time.Since(start).Seconds()
	if asyncRun.Stepper.Pending() != 0 {
		t.Fatalf("async drive left %d pending", asyncRun.Stepper.Pending())
	}
	asyncRate := float64(asyncRun.Stepper.Snapshot().Committed) / asyncSecs
	for learned, rate := range coloredRate {
		if rate < asyncRate {
			t.Errorf("learned=%v: colored steady-state commits/sec %.0f below async %.0f on the stable-conflict workload",
				learned, rate, asyncRate)
		}
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
