package profile

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
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
