package mesh

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func randomPoints(r *rng.Rand, n int, lo, hi float64) []Point {
	pts := make([]Point, n)
	span := hi - lo
	for i := range pts {
		pts[i] = Point{lo + 0.01*span + 0.98*span*r.Float64(), lo + 0.01*span + 0.98*span*r.Float64()}
	}
	return pts
}

func TestNewSquare(t *testing.T) {
	m := NewSquare(0, 1)
	if m.NumTriangles() != 2 || m.NumPoints() != 4 {
		t.Fatalf("tris=%d pts=%d", m.NumTriangles(), m.NumPoints())
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.TotalArea()-1) > 1e-12 {
		t.Fatalf("area = %v", m.TotalArea())
	}
}

func TestNewSquareInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSquare(1, 1)
}

func TestInsertSinglePoint(t *testing.T) {
	m := NewSquare(0, 1)
	idx, created := m.Insert(Point{0.5, 0.5})
	if idx != 4 {
		t.Fatalf("vertex index %d", idx)
	}
	// Inserting at the center of the square kills both triangles
	// (circumcircles of the two halves pass through all corners) and
	// fans 4 new ones.
	if len(created) != 4 || m.NumTriangles() != 4 {
		t.Fatalf("created %d, live %d", len(created), m.NumTriangles())
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.TotalArea()-1) > 1e-12 {
		t.Fatalf("area leaked: %v", m.TotalArea())
	}
}

func TestIncrementalDelaunay(t *testing.T) {
	r := rng.New(1)
	m := NewSquare(0, 1)
	for i, p := range randomPoints(r, 120, 0, 1) {
		m.Insert(p)
		if i%20 == 19 {
			if err := m.CheckConsistency(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
	// Euler: for a triangulated convex polygon with V vertices (4 hull)
	// T = 2V - 2 - hull = 2V - 6 for square hull of 4.
	wantT := 2*m.NumPoints() - 6
	if m.NumTriangles() != wantT {
		t.Fatalf("triangles = %d, want %d (V=%d)", m.NumTriangles(), wantT, m.NumPoints())
	}
	if math.Abs(m.TotalArea()-1) > 1e-9 {
		t.Fatalf("area = %v, want 1", m.TotalArea())
	}
}

func TestLocate(t *testing.T) {
	r := rng.New(2)
	m := NewSquare(0, 1)
	for _, p := range randomPoints(r, 60, 0, 1) {
		m.Insert(p)
	}
	for trial := 0; trial < 100; trial++ {
		p := Point{0.01 + 0.98*r.Float64(), 0.01 + 0.98*r.Float64()}
		id := m.Locate(p)
		if id < 0 {
			t.Fatalf("interior point %v not located", p)
		}
		tri := m.Triangle(id)
		a, b, c := m.Corners(tri)
		if !InTriangle(p, a, b, c) {
			t.Fatalf("Locate returned wrong triangle for %v", p)
		}
	}
	if m.Locate(Point{5, 5}) >= 0 {
		t.Fatal("exterior point located")
	}
}

func TestCavityContainsLocatedTriangle(t *testing.T) {
	r := rng.New(3)
	m := NewSquare(0, 1)
	for _, p := range randomPoints(r, 40, 0, 1) {
		m.Insert(p)
	}
	p := Point{0.37, 0.61}
	loc := m.Locate(p)
	cav := m.Cavity(nil, loc, p)
	found := false
	for _, id := range cav {
		if id == loc {
			found = true
		}
		// All cavity triangles' circumcircles contain p (except
		// possibly the seed, included unconditionally).
		tri := m.Triangle(id)
		a, b, c := m.Corners(tri)
		if id != loc && !InCircle(a, b, c, p) {
			t.Fatalf("cavity triangle %d circumcircle does not contain p", id)
		}
	}
	if !found {
		t.Fatal("cavity excludes the containing triangle")
	}
}

func TestRefineAreaOnly(t *testing.T) {
	r := rng.New(4)
	m := NewSquare(0, 1)
	for _, p := range randomPoints(r, 30, 0, 1) {
		m.Insert(p)
	}
	q := Quality{MaxArea: 0.002}
	st := m.Refine(q, 0)
	if st.Inserted == 0 {
		t.Fatal("refinement inserted nothing")
	}
	if bad := m.BadTriangles(q); len(bad) != 0 {
		t.Fatalf("%d bad triangles remain", len(bad))
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.TotalArea()-1) > 1e-9 {
		t.Fatalf("area = %v", m.TotalArea())
	}
}

// The hull index (map and dense slice) must match the boundary after
// every insertion of a refinement run, through both refiners. The angle
// bound makes many points land on the hull, so the hull is rebuilt often.
func TestRefineKeepsHullIndex(t *testing.T) {
	q := Quality{MinAngleDeg: 20, MaxArea: 0.004}
	check := func(t *testing.T, m *Mesh, inserted int) {
		t.Helper()
		if err := m.CheckConsistency(); err != nil {
			t.Fatalf("after insertion %d: %v", inserted, err)
		}
	}
	t.Run("sequential", func(t *testing.T) {
		m := buildTestMesh(13, 25)
		inserted := 0
		for m.Refine(q, 1).Inserted == 1 {
			inserted++
			check(t, m, inserted)
		}
		if len(m.BadTriangles(q)) != 0 || len(m.hullEdges) <= 8 {
			t.Fatalf("%d inserted, %d bad left, %d hull edges", inserted, len(m.BadTriangles(q)), len(m.hullEdges))
		}
	})
	t.Run("speculative", func(t *testing.T) {
		m := buildTestMesh(14, 25)
		r := rng.New(15)
		ref := NewSpeculativeRefiner(m, q, func(n int) int { return r.Intn(n) })
		for ref.Executor().Pending() > 0 {
			before := ref.Inserted
			ref.Executor().Round(1)
			if ref.Inserted != before {
				check(t, m, ref.Inserted)
			}
		}
		if len(m.BadTriangles(q)) != 0 || len(m.hullEdges) <= 8 {
			t.Fatalf("%d inserted, %d bad left, %d hull edges", ref.Inserted, len(m.BadTriangles(q)), len(m.hullEdges))
		}
	})
}

// BenchmarkMeshRefine prices a whole sequential refinement at apps_mix's
// mesh size: the operators (point location, hull-encroachment scans,
// cavities, retriangulation) without an executor.
func BenchmarkMeshRefine(b *testing.B) {
	const size = 6000
	q := Quality{MaxArea: 1.0 / size}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := rng.New(1)
		m := NewSquare(0, 1)
		for j := 0; j < size/10; j++ {
			m.Insert(Point{X: 0.01 + 0.98*r.Float64(), Y: 0.01 + 0.98*r.Float64()})
		}
		b.StartTimer()
		m.Refine(q, 0)
	}
}

func TestRefineWithAngleCriterion(t *testing.T) {
	r := rng.New(5)
	m := NewSquare(0, 1)
	for _, p := range randomPoints(r, 20, 0, 1) {
		m.Insert(p)
	}
	// Conservative angle bound (20.7° is Chew's provable limit; we stay
	// below it) plus an insertion cap as a safety net.
	q := Quality{MinAngleDeg: 18, MaxArea: 0.01}
	st := m.Refine(q, 20000)
	if st.Inserted >= 20000 {
		t.Fatal("refinement hit the safety cap — likely diverging")
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	rem := m.BadTriangles(q)
	if len(rem) != 0 {
		t.Fatalf("%d bad triangles remain after refinement", len(rem))
	}
}

func TestRefineMaxInsertsCap(t *testing.T) {
	r := rng.New(6)
	m := NewSquare(0, 1)
	for _, p := range randomPoints(r, 10, 0, 1) {
		m.Insert(p)
	}
	st := m.Refine(Quality{MaxArea: 0.0001}, 5)
	if st.Inserted != 5 {
		t.Fatalf("cap ignored: inserted %d", st.Inserted)
	}
}

func TestBadTriangles(t *testing.T) {
	m := NewSquare(0, 1)
	// Both halves have area 0.5.
	if got := len(m.BadTriangles(Quality{MaxArea: 0.4})); got != 2 {
		t.Fatalf("bad = %d, want 2", got)
	}
	if got := len(m.BadTriangles(Quality{MaxArea: 0.6})); got != 0 {
		t.Fatalf("bad = %d, want 0", got)
	}
	// Right isoceles halves have min angle 45°.
	if got := len(m.BadTriangles(Quality{MinAngleDeg: 50})); got != 2 {
		t.Fatalf("bad by angle = %d, want 2", got)
	}
}

func TestRefinePointInsideDomain(t *testing.T) {
	r := rng.New(7)
	m := NewSquare(0, 1)
	for _, p := range randomPoints(r, 50, 0, 1) {
		m.Insert(p)
	}
	for _, id := range m.TriangleIDs() {
		tri := m.Triangle(id)
		p, ok := m.RefinePointQ(tri, Quality{})
		if !ok {
			continue
		}
		if m.Locate(p) < 0 {
			t.Fatalf("refine point %v for triangle %d not locatable", p, id)
		}
	}
}
