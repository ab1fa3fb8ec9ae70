package sched

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// §4.1: "r_t can have a big variance, especially when m is small". We
// verify the relative noise (std/mean) of the per-round ratio shrinks
// as m grows on the paper's random graphs.
func TestSmallMVarianceIsLarger(t *testing.T) {
	r := rng.New(1)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	const reps = 3000
	type point struct {
		m        int
		relNoise float64
	}
	var pts []point
	est := NewEstimator(g, 1)
	for _, m := range []int{4, 16, 64, 256} {
		mean, std := est.ConflictRatioDist(r, m, reps)
		if mean <= 0 {
			t.Fatalf("m=%d: zero mean ratio", m)
		}
		pts = append(pts, point{m, std / mean})
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].relNoise >= pts[i-1].relNoise {
			t.Fatalf("relative noise did not shrink: m=%d %.3f -> m=%d %.3f",
				pts[i-1].m, pts[i-1].relNoise, pts[i].m, pts[i].relNoise)
		}
	}
	// Small m must be dramatically noisier (the §4.1 justification for
	// the separate small-m tuning): at least 3× between m=4 and m=256.
	if pts[0].relNoise < 3*pts[len(pts)-1].relNoise {
		t.Fatalf("small-m noise %.3f not ≫ large-m noise %.3f",
			pts[0].relNoise, pts[len(pts)-1].relNoise)
	}
}

func TestConflictRatioDistMCMeanMatchesPointEstimator(t *testing.T) {
	r := rng.New(2)
	g := graph.RandomWithAvgDegree(r, 500, 12)
	est := NewEstimator(g, 1)
	mean, std := est.ConflictRatioDist(r, 40, 4000)
	point := est.ConflictRatio(r, 40, 4000)
	if diff := mean - point; diff > 0.02 || diff < -0.02 {
		t.Fatalf("mean %v vs point estimator %v", mean, point)
	}
	if std <= 0 {
		t.Fatal("zero std on a conflicting workload")
	}
}

func TestConflictRatioDistMCEdge(t *testing.T) {
	r := rng.New(3)
	mean, std := NewEstimator(graph.New(), 1).ConflictRatioDist(r, 5, 10)
	if mean != 0 || std != 0 {
		t.Fatal("empty graph should give zeros")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reps=1 must panic")
		}
	}()
	NewEstimator(graph.Empty(3), 1).ConflictRatioDist(r, 2, 1)
}
