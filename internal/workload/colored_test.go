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
// never ran a colored round.
func driveColored(t *testing.T, name string, p Params) (*Run, *speculation.ColoredResult, float64) {
	t.Helper()
	run, err := New(name, p)
	if err != nil {
		t.Fatal(err)
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
// `make equiv`: on the synthetic stable-conflict workload the hybrid
// drive must (a) reach the colored phase and commit the bulk of the
// work there with a ~0 colored-round conflict ratio and zero colored
// aborts, (b) still satisfy the workload oracle exactly, and (c) not
// be slower than the barrier-free async drive of the same workload —
// colored rounds eliminate the aborted work and per-task lock traffic
// async still pays.
func TestColoredEquivalence(t *testing.T) {
	p := Params{Size: 600, Seed: 11, Parallel: 4}

	run, cres, coloredRate := driveColored(t, "stable", p)
	defer run.Stepper.Close()
	if cres.Colorings == 0 || cres.ColoredRounds == 0 {
		t.Fatalf("stable workload never entered the colored phase: %+v", cres)
	}
	if cres.Fallbacks != 0 || cres.Degraded {
		t.Fatalf("stable workload tripped staleness or degraded: %+v", cres)
	}
	if cres.ColoredAborts != 0 {
		t.Fatalf("colored rounds aborted %d tasks on a stable-conflict workload", cres.ColoredAborts)
	}
	if r := cres.ColoredConflictRatio(); r != 0 {
		t.Fatalf("colored conflict ratio %v, want 0", r)
	}
	if cres.ColoredCommits*2 < cres.Committed {
		t.Fatalf("colored phase committed %d of %d — the learning phase dominated",
			cres.ColoredCommits, cres.Committed)
	}
	if detail, err := run.Verify(); err != nil {
		t.Fatalf("oracle after colored drive: %v", err)
	} else if detail == "" {
		t.Fatal("empty oracle detail")
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
	if coloredRate < asyncRate {
		t.Errorf("colored steady-state commits/sec %.0f below async %.0f on the stable-conflict workload",
			coloredRate, asyncRate)
	}
}

// TestColoredAppWorkloads drives the colored-capable application
// workloads in hybrid mode and checks their oracles still hold: mesh
// and cluster footprints mutate as the structures evolve, so the drive
// may never leave the speculative phase — the point is that colored
// mode costs correctness nothing on them.
func TestColoredAppWorkloads(t *testing.T) {
	for _, name := range []string{"mesh", "cluster", "cc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if !Supports(name, CapColored) {
				t.Fatalf("%s lost its CapColored flag", name)
			}
			run, cres, _ := driveColored(t, name, Params{Size: smallSize[name], Seed: 1, Parallel: 2})
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
