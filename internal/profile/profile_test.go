package profile

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/workload"
)

func TestProfileDrains(t *testing.T) {
	r := rng.New(1)
	g := graph.RandomGNM(r, 150, 450)
	pts := Profile(g, r, 3, 1000, 1)
	if len(pts) == 0 {
		t.Fatal("no profile points")
	}
	if g.NumNodes() != 0 {
		t.Fatalf("%d nodes left after profile", g.NumNodes())
	}
	if pts[0].Live != 150 {
		t.Fatalf("first point live = %d", pts[0].Live)
	}
	// Live counts strictly decrease with no mutator.
	for i := 1; i < len(pts); i++ {
		if pts[i].Live >= pts[i-1].Live {
			t.Fatalf("live did not decrease at step %d", i)
		}
	}
	// Parallelism estimate is at least the Turán bound at each step.
	for _, p := range pts {
		if p.Live > 0 && p.Parallelism < float64(p.Live)/(p.AvgDegree+1)*0.95 {
			t.Errorf("step %d: parallelism %v below Turán bound", p.Step, p.Parallelism)
		}
	}
}

func TestProfileMaxSteps(t *testing.T) {
	r := rng.New(3)
	g := graph.Complete(50) // drains one node per step
	pts := Profile(g, r, 1, 10, 0)
	if len(pts) != 10 {
		t.Fatalf("profile has %d points, want maxSteps=10", len(pts))
	}
}

func TestProfileRejectsNoReps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("misReps = 0 must panic, not report parallelism 0")
		}
	}()
	Profile(graph.Empty(5), rng.New(1), 0, 10, 1)
}

// TestDrainProfile drains every registered workload that drains (spin
// never does) the way ccprofile does: one participant, every pending
// task launched each round. The work-set must end empty with the oracle
// satisfied, each step must commit at least one and at most every
// pending task, the steps must account for every commit, and the same
// seed must give the same profile.
func TestDrainProfile(t *testing.T) {
	drain := func(t *testing.T, name string, seed uint64) []Point {
		run, err := workload.New(name, workload.Params{Size: 200, Seed: seed, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer run.Stepper.Close()
		pts := Drain(run.Stepper, 100000)
		snap := run.Stepper.Snapshot()
		if snap.Pending != 0 {
			t.Fatalf("%d tasks pending after the drain", snap.Pending)
		}
		sum := 0.0
		for _, p := range pts {
			if p.Parallelism < 1 || p.Parallelism > float64(p.Live) {
				t.Fatalf("step %d: %v committed of %d pending", p.Step, p.Parallelism, p.Live)
			}
			sum += p.Parallelism
		}
		if sum != float64(snap.Committed) {
			t.Fatalf("steps commit %v tasks, executor %d", sum, snap.Committed)
		}
		if _, err := run.Verify(); err != nil {
			t.Fatal(err)
		}
		return pts
	}
	for _, name := range workload.Names() {
		if name == "spin" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				if a, b := drain(t, name, seed), drain(t, name, seed); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d: two drains differ:\n%v\n%v", seed, a, b)
				}
			}
		})
	}
}

func TestDrainMaxSteps(t *testing.T) {
	run, err := workload.New("spin", workload.Params{Size: 5, Seed: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stepper.Close()
	if pts := Drain(run.Stepper, 10); len(pts) != 10 || pts[9].Parallelism != 5 {
		t.Fatalf("spin drain = %v, want 10 steps of 5 commits", pts)
	}
}
