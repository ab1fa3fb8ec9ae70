package workload

import (
	"context"
	"slices"
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
// its trajectory, the colored result, and the number of attempts its
// colored super-rounds launched.
func driveColored(t *testing.T, name string, p Params) (*Run, *speculation.AdaptiveResult, *speculation.ColoredResult, int64) {
	t.Helper()
	run, err := New(name, p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController("hybrid", ControllerParams{Rho: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var coloredLaunched int64
	res, cres, err := DrainColored(context.Background(), run.Stepper, c, speculation.ColoredOptions{
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
	return run, res, cres, coloredLaunched
}

// TestColoredEquivalence is the colored-mode acceptance run wired into
// `make equiv`, on the synthetic stable-conflict workload, whose tasks
// declare their footprints: the drive never speculates — every commit
// is a colored one — and the workload oracle holds exactly. The colored
// rounds eliminate the aborted work the barrier-free async drive of the
// same workload still pays: a colored super-round launches exactly one
// attempt per commit, the async drive, held at ρ = 0.25 by the same
// controller, well over one. (Which of the two is faster is the
// BenchmarkExecutorColored rows' question, not a 5 ms run's.)
func TestColoredEquivalence(t *testing.T) {
	p := Params{Size: 600, Seed: 11, Parallel: 4}

	run, _, cres, coloredLaunched := driveColored(t, "stable", p)
	defer run.Stepper.Close()
	if cres.Fallbacks != 0 {
		t.Fatalf("stable workload tripped staleness: %+v", cres)
	}
	if cres.ColoredAborts != 0 || cres.ColoredConflictRatio() != 0 || cres.ColoredCommits != coloredLaunched {
		t.Fatalf("colored rounds launched %d attempts for %d commits (%d aborts) on a stable-conflict workload",
			coloredLaunched, cres.ColoredCommits, cres.ColoredAborts)
	}
	if cres.SpecRounds != 0 || cres.ColoredCommits != cres.Committed {
		t.Fatalf("declared footprints, yet %d speculative rounds and %d of %d commits colored",
			cres.SpecRounds, cres.ColoredCommits, cres.Committed)
	}
	if detail, err := run.Verify(); err != nil {
		t.Fatalf("oracle after colored drive: %v", err)
	} else if detail == "" {
		t.Fatal("empty oracle detail")
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
// workloads in colored mode and checks their oracles still hold. cc
// declares its footprints, so every commit is colored. mesh and cluster
// do not declare, so their colored drive is a round drive: at Parallel
// 1, where a drive is a function of the seed, its per-sample (M, R,
// Committed) series is Drain's, and nothing is colored.
func TestColoredAppWorkloads(t *testing.T) {
	for _, name := range []string{"mesh", "cluster", "cc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if !Supports(name, CapColored) {
				t.Fatalf("%s lost its CapColored flag", name)
			}
			declares := name == "cc"
			p := Params{Size: smallSize[name], Seed: 1, Parallel: 2}
			if !declares {
				p.Parallel = 1
			}
			run, res, cres, _ := driveColored(t, name, p)
			defer run.Stepper.Close()
			if _, err := run.Verify(); err != nil {
				t.Fatalf("oracle after colored drive: %v", err)
			}
			if declares {
				if cres.SpecRounds != 0 || cres.ColoredCommits != cres.Committed {
					t.Fatalf("%s declares, yet %d speculative rounds and %d of %d commits colored",
						name, cres.SpecRounds, cres.ColoredCommits, cres.Committed)
				}
				return
			}
			if cres.Colorings != 0 || cres.ColoredRounds != 0 {
				t.Fatalf("%s does not declare, yet colored: %+v", name, cres)
			}
			roundRun, err := New(name, p)
			if err != nil {
				t.Fatal(err)
			}
			defer roundRun.Stepper.Close()
			c, _ := NewController("hybrid", ControllerParams{Rho: 0.25})
			rounds := Drain(context.Background(), roundRun.Stepper, c, 0)
			if len(rounds.M) < 2 || !slices.Equal(res.M, rounds.M) || !slices.Equal(res.R, rounds.R) || !slices.Equal(res.Committed, rounds.Committed) {
				t.Fatalf("%s colored drive differs from its round drive:\n colored M=%v R=%v C=%v\n round   M=%v R=%v C=%v",
					name, res.M, res.R, res.Committed, rounds.M, rounds.R, rounds.Committed)
			}
		})
	}
}
