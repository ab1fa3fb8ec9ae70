package mesh

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestComputeStatsSquare(t *testing.T) {
	m := NewSquare(0, 1)
	st := m.ComputeStats()
	if st.Triangles != 2 || st.Points != 4 {
		t.Fatalf("counts %d/%d", st.Triangles, st.Points)
	}
	if math.Abs(st.TotalArea-1) > 1e-12 {
		t.Fatalf("area %v", st.TotalArea)
	}
	// Two right isoceles halves: min angle 45° each.
	if math.Abs(st.MinAngleDeg-45) > 1e-9 || math.Abs(st.MeanAngleDeg-45) > 1e-9 {
		t.Fatalf("angles %v/%v", st.MinAngleDeg, st.MeanAngleDeg)
	}
	if st.AngleHist[9] != 2 { // 45° lands in the 45-50 bin
		t.Fatalf("hist %v", st.AngleHist)
	}
	if st.MinArea != 0.5 || st.MaxArea != 0.5 {
		t.Fatalf("areas %v/%v", st.MinArea, st.MaxArea)
	}
}

func TestComputeStatsEmptyMeshSafe(t *testing.T) {
	m := &Mesh{}
	st := m.ComputeStats()
	if st.Triangles != 0 || st.MinAngleDeg != 0 || st.MinArea != 0 {
		t.Fatalf("empty mesh stats %+v", st)
	}
}

// Refinement with an angle criterion must raise the worst angle to (at
// least) the requested bound.
func TestRefinementImprovesQuality(t *testing.T) {
	r := rng.New(1)
	m := NewSquare(0, 1)
	for _, p := range randomPoints(r, 40, 0, 1) {
		m.Insert(p)
	}
	before := m.ComputeStats()
	m.Refine(Quality{MinAngleDeg: 18, MaxArea: 0.01}, 50000)
	after := m.ComputeStats()
	if after.MinAngleDeg < 18 {
		t.Fatalf("worst angle %v° below the 18° bound", after.MinAngleDeg)
	}
	if after.MinAngleDeg < before.MinAngleDeg {
		t.Fatalf("quality decreased: %v° -> %v°", before.MinAngleDeg, after.MinAngleDeg)
	}
	if math.Abs(after.TotalArea-1) > 1e-9 {
		t.Fatalf("area leaked: %v", after.TotalArea)
	}
}
