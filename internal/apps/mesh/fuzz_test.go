package mesh

import (
	"math"
	"testing"
)

// FuzzMeshInsert drives Bowyer–Watson with arbitrary (possibly
// adversarial: near-duplicate, cocircular, boundary-hugging) points and
// asserts full structural consistency after each insertion.
func FuzzMeshInsert(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80})
	f.Add([]byte{0, 0, 255, 255, 128, 128, 128, 129})
	f.Add([]byte{1, 1, 1, 2, 2, 1, 2, 2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		m := NewSquare(0, 1)
		area0 := m.TotalArea()
		for i := 0; i+1 < len(raw) && i < 120; i += 2 {
			// Quantized coordinates maximize exact-duplicate and
			// cocircular collisions.
			p := Point{
				X: 0.05 + 0.9*float64(raw[i])/255,
				Y: 0.05 + 0.9*float64(raw[i+1])/255,
			}
			m.Insert(p)
			if err := m.CheckConsistency(); err != nil {
				t.Fatalf("after inserting %v: %v", p, err)
			}
		}
		if math.Abs(m.TotalArea()-area0) > 1e-9 {
			t.Fatalf("area drifted: %v", m.TotalArea())
		}
	})
}

// FuzzLocateFrom inserts decoded points as FuzzMeshInsert does, then
// locates probe points from every live triangle: decoded points, the
// midpoints of hull edges and of shared edges (where a walk may end in
// either of two triangles), and points outside the square. An interior
// probe must land in a live triangle that contains it; an exterior one
// must return -1. locateFrom must not move the location hint.
func FuzzLocateFrom(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80})
	f.Add([]byte{0, 0, 255, 255, 128, 128, 128, 129})
	f.Add([]byte{1, 1, 1, 2, 2, 1, 2, 2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		m := NewSquare(0, 1)
		decode := func(x, y byte) Point {
			return Point{X: 0.05 + 0.9*float64(x)/255, Y: 0.05 + 0.9*float64(y)/255}
		}
		for i := 0; i+1 < len(raw) && i < 60; i += 2 {
			m.Insert(decode(raw[i], raw[i+1]))
		}
		var probes []Point
		for i := 0; i+1 < len(raw) && i < 40; i += 2 {
			probes = append(probes, decode(raw[i+1], raw[i]))
		}
		for _, id := range m.TriangleIDs() {
			tri := m.Triangle(id)
			for i := 0; i < 3; i++ {
				a, b := m.Pts[tri.V[i]], m.Pts[tri.V[(i+1)%3]]
				probes = append(probes, Point{(a.X + b.X) / 2, (a.Y + b.Y) / 2})
			}
		}
		exterior := []Point{{-0.5, 0.5}, {1.5, 0.5}, {0.5, -0.5}, {0.5, 1.5}, {2, 2}}
		hint := m.locHint
		for _, id := range m.TriangleIDs() {
			start := m.Triangle(id)
			for _, p := range probes {
				got := m.locateFrom(start, p)
				tri := m.Triangle(got)
				if tri == nil {
					t.Fatalf("locateFrom(%d, %v) = %d, not a live triangle", id, p, got)
				}
				a, b, c := m.Corners(tri)
				if !InTriangle(p, a, b, c) {
					t.Fatalf("locateFrom(%d, %v) = %d, which does not contain it", id, p, got)
				}
			}
			for _, p := range exterior {
				if got := m.locateFrom(start, p); got != -1 {
					t.Fatalf("locateFrom(%d, %v) = %d for a point outside the square", id, p, got)
				}
			}
		}
		if m.locHint != hint {
			t.Fatalf("locateFrom moved the hint from %d to %d", hint, m.locHint)
		}
	})
}
