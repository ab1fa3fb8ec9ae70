package sched

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Lemma 1: k̄(m) = m·r̄(m) is non-decreasing and convex in m. The paper
// proves it for the dynamic model; on static graphs it must hold
// exactly, which we verify with the enumeration oracle.
func TestLemma1KBarMonotoneConvex(t *testing.T) {
	r := rng.New(1)
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"complete", graph.Complete(7)},
		{"path", graph.Path(7)},
		{"cycle", graph.Cycle(7)},
		{"star", graph.Star(7)},
		{"random", graph.RandomGNM(r, 7, 10)},
		{"cliques", graph.CliqueUnion(8, 3)},
		{"sparse", graph.RandomGNM(r, 8, 4)},
	}
	for _, c := range cases {
		n := c.g.NumNodes()
		kbar := make([]float64, n+1)
		for m := 1; m <= n; m++ {
			kbar[m] = ExactExpectedAborts(c.g, m)
		}
		for m := 1; m < n; m++ {
			if kbar[m+1] < kbar[m]-1e-12 {
				t.Errorf("%s: k̄ decreased at m=%d: %v -> %v", c.name, m, kbar[m], kbar[m+1])
			}
		}
		for m := 1; m+2 <= n; m++ {
			d2 := kbar[m+2] - 2*kbar[m+1] + kbar[m]
			if d2 < -1e-12 {
				t.Errorf("%s: k̄ not convex at m=%d: Δ²=%v", c.name, m, d2)
			}
		}
	}
}

// The unfriendly seating problem (Freedman–Shepp, cited in §3): the
// expected density of a random greedy maximal independent set converges
// to (1−e⁻²)/2 ≈ 0.4323 on long paths/cycles, and to ≈0.3641 on the 2D
// square lattice (the statistical-physics setting of [11]).
func TestUnfriendlySeatingPathDensity(t *testing.T) {
	r := rng.New(2)
	g := graph.Path(400)
	est := NewEstimator(g, 1).ExpectedCommitted(r, 400, 300) / 400
	want := (1 - math.Exp(-2)) / 2
	if math.Abs(est-want) > 0.01 {
		t.Fatalf("path density %v, want %v", est, want)
	}
}

func TestUnfriendlySeatingCycleDensity(t *testing.T) {
	r := rng.New(3)
	g := graph.Cycle(400)
	est := NewEstimator(g, 1).ExpectedCommitted(r, 400, 300) / 400
	want := (1 - math.Exp(-2)) / 2
	if math.Abs(est-want) > 0.01 {
		t.Fatalf("cycle density %v, want %v", est, want)
	}
}

func TestUnfriendlySeatingGridDensity(t *testing.T) {
	r := rng.New(4)
	g := graph.Grid2D(40, 40)
	est := NewEstimator(g, 1).ExpectedCommitted(r, 1600, 200) / 1600
	// Random sequential adsorption with nearest-neighbor exclusion on
	// Z²: jamming density ≈ 0.3641 (boundary effects raise a finite
	// grid slightly).
	if est < 0.355 || est < 0.0 || est > 0.385 {
		t.Fatalf("grid density %v, want ≈0.364", est)
	}
}

// For the path, r̄(n) has a closed-form limit too: 1 − density·... — we
// only check consistency between the two estimators here: committing a
// full random permutation equals n − E[MIS].
func TestAbortsPlusMISIsN(t *testing.T) {
	r := rng.New(5)
	g := graph.RandomGNM(r, 60, 150)
	n := g.NumNodes()
	est := NewEstimator(g, 1)
	mis := est.ExpectedCommitted(r, n, 2000)
	ratio := est.ConflictRatio(r, n, 2000)
	aborts := ratio * float64(n)
	if math.Abs(aborts+mis-float64(n)) > 1.0 {
		t.Fatalf("E[aborts] %v + E[MIS] %v != n=%d", aborts, mis, n)
	}
}

// Eq. 8 of the paper: Δr̄(m) = (m·Δk̄(m) − k̄(m)) / (m(m+1)). Verified
// exactly on the enumeration oracle.
func TestEq8FiniteDifferenceIdentity(t *testing.T) {
	r := rng.New(6)
	cases := []*graph.Graph{
		graph.Complete(6),
		graph.Path(7),
		graph.RandomGNM(r, 7, 9),
		graph.CliqueUnion(8, 3),
	}
	for gi, g := range cases {
		n := g.NumNodes()
		for m := 1; m+1 <= n; m++ {
			rm := ExactConflictRatio(g, m)
			rm1 := ExactConflictRatio(g, m+1)
			km := ExactExpectedAborts(g, m)
			km1 := ExactExpectedAborts(g, m+1)
			lhs := rm1 - rm
			rhs := (float64(m)*(km1-km) - km) / (float64(m) * float64(m+1))
			if math.Abs(lhs-rhs) > 1e-12 {
				t.Fatalf("graph %d m=%d: Δr̄=%v but Eq.8 gives %v", gi, m, lhs, rhs)
			}
		}
	}
}

// Eq. 12-13 of the paper: k̄(2) = d/(n−1) exactly.
func TestEq13KBarAtTwo(t *testing.T) {
	r := rng.New(7)
	cases := []*graph.Graph{
		graph.Complete(6),
		graph.Star(8),
		graph.RandomGNM(r, 8, 11),
	}
	for gi, g := range cases {
		want := g.AvgDegree() / float64(g.NumNodes()-1)
		if got := ExactExpectedAborts(g, 2); math.Abs(got-want) > 1e-12 {
			t.Fatalf("graph %d: k̄(2)=%v want %v", gi, got, want)
		}
	}
}
