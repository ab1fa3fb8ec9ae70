package mesh

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestOffCenterGeometry(t *testing.T) {
	// Very flat triangle: base (0,0)-(1,0) with apex barely above —
	// shortest edge is an apex edge; but use a long skinny one where
	// the shortest edge is the base of a tall circumradius.
	a, b, c := Point{0, 0}, Point{0.1, 0}, Point{0.05, 2}
	cc := Circumcenter(a, b, c)
	beta := 25 * math.Pi / 180
	oc := offCenter(a, b, c, cc, beta)
	// The off-center must lie strictly between the shortest edge's
	// midpoint and the circumcenter.
	mid := Point{0.05, 0}
	dOC := oc.Dist2(mid)
	dCC := cc.Dist2(mid)
	if dOC >= dCC {
		t.Fatalf("off-center no closer than circumcenter: %v vs %v", dOC, dCC)
	}
	// At the off-center, the shortest edge subtends exactly beta.
	ang := MinAngle(a, b, oc)
	if math.Abs(ang-beta) > 1e-9 {
		t.Fatalf("subtended angle %v, want %v", ang, beta)
	}
}

func TestOffCenterFallsBackToCircumcenter(t *testing.T) {
	// Near-equilateral: circumcenter already close to the shortest
	// edge, so the off-center IS the circumcenter.
	h := math.Sqrt(3) / 2
	a, b, c := Point{0, 0}, Point{1, 0}, Point{0.5, h}
	cc := Circumcenter(a, b, c)
	oc := offCenter(a, b, c, cc, 25*math.Pi/180)
	if oc != cc {
		t.Fatalf("off-center moved a good triangle's point: %v vs %v", oc, cc)
	}
}

// Off-centers refine to the same quality with no more (typically fewer)
// insertions than circumcenters.
func TestOffCenterReducesInsertions(t *testing.T) {
	build := func() *Mesh {
		r := rng.New(9)
		m := NewSquare(0, 1)
		for _, p := range randomPoints(r, 30, 0, 1) {
			m.Insert(p)
		}
		return m
	}
	qCC := Quality{MinAngleDeg: 22, MaxArea: 0.005}
	qOC := Quality{MinAngleDeg: 22, MaxArea: 0.005, OffCenter: true}

	mCC := build()
	stCC := mCC.Refine(qCC, 100000)
	mOC := build()
	stOC := mOC.Refine(qOC, 100000)

	if len(mCC.BadTriangles(qCC)) != 0 || len(mOC.BadTriangles(qOC)) != 0 {
		t.Fatal("refinement incomplete")
	}
	if err := mOC.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if sOC := mOC.ComputeStats(); sOC.MinAngleDeg < 22 {
		t.Fatalf("off-center mesh quality %v° below bound", sOC.MinAngleDeg)
	}
	// Üngör's result: off-centers need at most as many points, usually
	// fewer. Allow 10% slack for small-instance noise.
	if float64(stOC.Inserted) > 1.1*float64(stCC.Inserted) {
		t.Fatalf("off-center inserted %d vs circumcenter %d", stOC.Inserted, stCC.Inserted)
	}
	t.Logf("insertions: circumcenter=%d off-center=%d", stCC.Inserted, stOC.Inserted)
}

func TestSpeculativeRefinerWithOffCenters(t *testing.T) {
	m := buildTestMesh(11, 25)
	q := Quality{MinAngleDeg: 20, MaxArea: 0.004, OffCenter: true}
	r := rng.New(12)
	ref := NewSpeculativeRefiner(m, q, func(n int) int { return r.Intn(n) })
	rounds := 0
	for ref.Executor().Pending() > 0 {
		ref.Executor().Round(8)
		rounds++
		if rounds > 100000 {
			t.Fatal("did not drain")
		}
	}
	if len(m.BadTriangles(q)) != 0 {
		t.Fatal("bad triangles remain")
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
