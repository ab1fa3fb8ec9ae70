package mesh

import (
	"fmt"
	"math"
	"slices"
)

// Triangle is one face of the triangulation. Vertices are indices into
// the mesh point slice, in counter-clockwise order. N[i] is the ID of
// the neighbor sharing the edge (V[i], V[(i+1)%3]), or -1 on the hull.
type Triangle struct {
	ID int
	V  [3]int
	N  [3]int
}

// Mesh is a mutable 2D triangulation.
type Mesh struct {
	Pts       []Point
	tris      []*Triangle    // by ID; nil once the triangle is gone
	live      int            // non-nil entries of tris
	hull      map[[2]int]int // directed hull edge (u,v) -> its slot in hullEdges
	hullEdges []hullEdge     // the hull densely, for the encroachment scans
	locHint   int            // last triangle touched, seeds point location walks
}

// hullEdge is a directed hull edge and the triangle that owns it.
type hullEdge struct {
	e     [2]int
	owner int
}

// NewSquare returns a triangulation of the axis-aligned square
// [lo,hi]×[lo,hi] consisting of two triangles. All later insertions must
// lie strictly inside the square.
func NewSquare(lo, hi float64) *Mesh {
	if hi <= lo {
		panic("mesh: NewSquare requires hi > lo")
	}
	m := &Mesh{hull: make(map[[2]int]int)}
	m.Pts = []Point{{lo, lo}, {hi, lo}, {hi, hi}, {lo, hi}}
	// Two CCW triangles: (0,1,2) and (0,2,3) sharing edge (0,2).
	t0 := m.newTriangle([3]int{0, 1, 2})
	t1 := m.newTriangle([3]int{0, 2, 3})
	t0.N = [3]int{-1, -1, t1.ID}
	t1.N = [3]int{t0.ID, -1, -1}
	m.indexHullEdges(t0)
	m.indexHullEdges(t1)
	return m
}

func (m *Mesh) newTriangle(v [3]int) *Triangle {
	t := &Triangle{ID: len(m.tris), V: v, N: [3]int{-1, -1, -1}}
	m.tris = append(m.tris, t)
	m.live++
	return t
}

// indexHullEdges registers t's boundary (-1 neighbor) edges in the hull
// index.
func (m *Mesh) indexHullEdges(t *Triangle) {
	for i := 0; i < 3; i++ {
		if t.N[i] < 0 {
			e := [2]int{t.V[i], t.V[(i+1)%3]}
			m.hull[e] = len(m.hullEdges)
			m.hullEdges = append(m.hullEdges, hullEdge{e, t.ID})
		}
	}
}

// unindexHullEdges removes t's boundary edges from the hull index,
// moving the last hull edge into each vacated slot.
func (m *Mesh) unindexHullEdges(t *Triangle) {
	for i := 0; i < 3; i++ {
		if t.N[i] < 0 {
			e := [2]int{t.V[i], t.V[(i+1)%3]}
			slot := m.hull[e]
			last := m.hullEdges[len(m.hullEdges)-1]
			m.hullEdges[slot] = last
			m.hull[last.e] = slot
			m.hullEdges = m.hullEdges[:len(m.hullEdges)-1]
			delete(m.hull, e)
		}
	}
}

// EachHullEdge calls fn for every directed hull edge (u, v), in the
// hull index's storage order; fn must not change the mesh.
func (m *Mesh) EachHullEdge(fn func(u, v int)) {
	for _, h := range m.hullEdges {
		fn(h.e[0], h.e[1])
	}
}

// NumTriangles returns the number of live triangles.
func (m *Mesh) NumTriangles() int { return m.live }

// NumPoints returns the number of vertices.
func (m *Mesh) NumPoints() int { return len(m.Pts) }

// Triangle returns the live triangle with the given ID, or nil.
func (m *Mesh) Triangle(id int) *Triangle {
	if id < 0 || id >= len(m.tris) {
		return nil
	}
	return m.tris[id]
}

// TriangleIDs returns the IDs of all live triangles in ascending order.
func (m *Mesh) TriangleIDs() []int {
	out := make([]int, 0, m.live)
	for id, t := range m.tris {
		if t != nil {
			out = append(out, id)
		}
	}
	return out
}

// Corners returns the three corner points of triangle t.
func (m *Mesh) Corners(t *Triangle) (Point, Point, Point) {
	return m.Pts[t.V[0]], m.Pts[t.V[1]], m.Pts[t.V[2]]
}

// Locate returns the ID of a live triangle containing p, walking from
// the location hint, and moves the hint there. It returns -1 if p is
// outside the triangulation. The hint makes Locate a writer: only the
// sequential Insert uses it, and everything else locates with
// locateFrom.
func (m *Mesh) Locate(p Point) int {
	id := m.locateFrom(m.Triangle(m.locHint), p)
	if id >= 0 {
		m.locHint = id
	}
	return id
}

// locateFrom returns the ID of a live triangle containing p, walking
// from t (nil skips the walk) and falling back to a linear scan. It
// returns -1 if p is outside the triangulation. It only reads the mesh,
// so tasks of one speculative round may call it concurrently.
func (m *Mesh) locateFrom(t *Triangle, p Point) int {
	if t != nil {
		if id := m.walk(t, p, 4*m.live+64); id >= 0 {
			return id
		}
	}
	for id, t := range m.tris {
		if t == nil {
			continue
		}
		a, b, c := m.Corners(t)
		if InTriangle(p, a, b, c) {
			return id
		}
	}
	return -1
}

// walk performs a straight visibility walk toward p with a step bound;
// it returns -1 if the walk escapes the hull or exceeds the bound.
func (m *Mesh) walk(t *Triangle, p Point, maxSteps int) int {
	for step := 0; step < maxSteps; step++ {
		moved := false
		for i := 0; i < 3; i++ {
			a := m.Pts[t.V[i]]
			b := m.Pts[t.V[(i+1)%3]]
			if Orient2D(a, b, p) < -1e-12 {
				nid := t.N[i]
				if nid < 0 {
					return -1
				}
				nt := m.tris[nid]
				if nt == nil {
					return -1
				}
				t = nt
				moved = true
				break
			}
		}
		if !moved {
			return t.ID
		}
	}
	return -1
}

// Cavity appends to dst the IDs of the triangles whose circumcircle
// contains p, grown by adjacency from the containing triangle start
// (Bowyer–Watson cavity), in depth-first order, and returns the extended
// slice. start must contain p. A cavity holds a handful of triangles, so
// membership is a scan of the output and the stack rather than a set,
// and a caller's stack buffer as dst makes the call allocation-free.
func (m *Mesh) Cavity(dst []int, start int, p Point) []int {
	t0 := m.Triangle(start)
	if t0 == nil {
		panic(fmt.Sprintf("mesh: cavity start %d is dead", start))
	}
	var stackBuf [16]*Triangle
	stack := append(stackBuf[:0], t0)
	n0 := len(dst)
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dst = append(dst, t.ID)
		for i := 0; i < 3; i++ {
			nid := t.N[i]
			if nid < 0 || slices.Contains(dst[n0:], nid) ||
				slices.ContainsFunc(stack, func(s *Triangle) bool { return s.ID == nid }) {
				continue
			}
			nt := m.tris[nid]
			a, b, c := m.Corners(nt)
			if InCircle(a, b, c, p) {
				stack = append(stack, nt)
			}
		}
	}
	return dst
}

// Insert adds point p to the triangulation with the Bowyer–Watson cavity
// algorithm and returns the index of the new vertex and the IDs of the
// newly created triangles. Inserting a point (numerically) coincident
// with an existing vertex is a no-op returning that vertex and no new
// triangles. It panics if p is outside the triangulation.
func (m *Mesh) Insert(p Point) (int, []int) {
	loc := m.Locate(p)
	if loc < 0 {
		panic(fmt.Sprintf("mesh: point %v outside triangulation", p))
	}
	t := m.tris[loc]
	for _, vi := range t.V {
		if p.Dist2(m.Pts[vi]) < 1e-24 {
			return vi, nil
		}
	}
	var buf [32]int
	return m.InsertInCavity(p, m.Cavity(buf[:0], loc, p))
}

// InsertInCavity performs the retriangulation step given a precomputed
// cavity (used by the speculative refiner, which computed and locked the
// cavity earlier). The cavity must be the Bowyer–Watson cavity of p.
// Cavities and their fans hold a handful of triangles, so every lookup
// below is a scan.
func (m *Mesh) InsertInCavity(p Point, cavity []int) (int, []int) {
	pIdx := len(m.Pts)
	m.Pts = append(m.Pts, p)

	// Boundary edges of the cavity, oriented CCW (cavity on the left).
	type bEdge struct {
		u, v  int // vertex indices
		outer int // neighbor triangle beyond the edge, or -1
	}
	var boundaryBuf [16]bEdge
	boundary := boundaryBuf[:0]
	for _, id := range cavity {
		t := m.Triangle(id)
		if t == nil {
			panic(fmt.Sprintf("mesh: cavity triangle %d is dead", id))
		}
		for i := 0; i < 3; i++ {
			nid := t.N[i]
			if nid >= 0 && slices.Contains(cavity, nid) {
				continue
			}
			boundary = append(boundary, bEdge{u: t.V[i], v: t.V[(i+1)%3], outer: nid})
		}
	}

	// Remove the cavity (including its hull edges from the index).
	for _, id := range cavity {
		m.unindexHullEdges(m.tris[id])
		m.tris[id] = nil
		m.live--
	}

	// One new triangle per boundary edge; (u, v, p) is CCW because the
	// cavity is star-shaped around p. A boundary hull edge collinear
	// with p (p inserted ON the hull) would yield a degenerate triangle
	// and is skipped: the fan is then open and p becomes a hull vertex.
	created := make([]int, 0, len(boundary))
	for _, e := range boundary {
		a, b := m.Pts[e.u], m.Pts[e.v]
		if e.outer < 0 && Orient2D(a, b, p) <= 1e-12*(a.Dist2(b)+1) {
			continue // p lies on this hull edge: it splits in two hull edges
		}
		nt := m.newTriangle([3]int{e.u, e.v, pIdx})
		nt.N[0] = e.outer
		if e.outer >= 0 {
			// Rewire the outer triangle's pointer across exactly the
			// shared edge (it may border the cavity on several edges).
			ot := m.tris[e.outer]
			for i := 0; i < 3; i++ {
				if ot.V[i] == e.v && ot.V[(i+1)%3] == e.u {
					ot.N[i] = nt.ID
				}
			}
		}
		created = append(created, nt.ID)
	}
	if len(created) == 0 {
		panic("mesh: cavity produced no triangles")
	}
	// Wire the spokes: triangle over edge (u,v) has spoke edges (v,p)
	// and (p,u). Across (v,p) lies the fan triangle whose first vertex
	// is v; across (p,u) the one whose second vertex is u. No such
	// triangle means the fan is open there (p on the hull) and the
	// spoke is a hull edge.
	for _, id := range created {
		t := m.tris[id]
		for _, oid := range created {
			o := m.tris[oid]
			if o.V[0] == t.V[1] {
				t.N[1] = oid
			}
			if o.V[1] == t.V[0] {
				t.N[2] = oid
			}
		}
	}
	for _, id := range created {
		m.indexHullEdges(m.tris[id])
	}
	m.locHint = created[0]
	return pIdx, created
}

// CheckConsistency validates structural invariants: CCW orientation,
// symmetric adjacency, edge-sharing agreement, and a hull index that
// matches the boundary. Used by tests.
func (m *Mesh) CheckConsistency() error {
	live := 0
	for id, t := range m.tris {
		if t == nil {
			continue
		}
		live++
		if t.ID != id {
			return fmt.Errorf("mesh: triangle %d has ID %d", id, t.ID)
		}
		a, b, c := m.Corners(t)
		if Orient2D(a, b, c) <= 0 {
			return fmt.Errorf("mesh: triangle %d not CCW", id)
		}
		for i := 0; i < 3; i++ {
			nid := t.N[i]
			if nid < 0 {
				continue
			}
			nt := m.Triangle(nid)
			if nt == nil {
				return fmt.Errorf("mesh: triangle %d points to dead neighbor %d", id, nid)
			}
			// The neighbor must point back across the shared edge.
			u, v := t.V[i], t.V[(i+1)%3]
			found := false
			for j := 0; j < 3; j++ {
				if nt.V[j] == v && nt.V[(j+1)%3] == u {
					if nt.N[j] != id {
						return fmt.Errorf("mesh: asymmetric adjacency %d/%d", id, nid)
					}
					found = true
				}
			}
			if !found {
				return fmt.Errorf("mesh: triangles %d and %d do not share edge (%d,%d)", id, nid, u, v)
			}
		}
	}
	if live != m.live {
		return fmt.Errorf("mesh: %d live triangles, count says %d", live, m.live)
	}
	// The hull index must exactly match the -1 neighbor edges, and the
	// map and the dense slice must describe each other.
	want := 0
	for id, t := range m.tris {
		if t == nil {
			continue
		}
		for i := 0; i < 3; i++ {
			if t.N[i] < 0 {
				want++
				e := [2]int{t.V[i], t.V[(i+1)%3]}
				slot, ok := m.hull[e]
				if !ok || slot < 0 || slot >= len(m.hullEdges) || m.hullEdges[slot] != (hullEdge{e, id}) {
					return fmt.Errorf("mesh: hull index missing edge (%d,%d) of triangle %d", e[0], e[1], id)
				}
			}
		}
	}
	if want != len(m.hull) || want != len(m.hullEdges) {
		return fmt.Errorf("mesh: hull index has %d edges in %d slots, mesh has %d",
			len(m.hull), len(m.hullEdges), want)
	}
	return nil
}

// CheckDelaunay verifies the empty-circumcircle property against every
// vertex (brute force, O(T·V); test-only).
func (m *Mesh) CheckDelaunay() error {
	for id, t := range m.tris {
		if t == nil {
			continue
		}
		a, b, c := m.Corners(t)
		for vi, p := range m.Pts {
			if vi == t.V[0] || vi == t.V[1] || vi == t.V[2] {
				continue
			}
			if InCircle(a, b, c, p) {
				return fmt.Errorf("mesh: vertex %d violates circumcircle of triangle %d", vi, id)
			}
		}
	}
	return nil
}

// TotalArea returns the summed area of all live triangles.
func (m *Mesh) TotalArea() float64 {
	total := 0.0
	for _, t := range m.tris {
		if t != nil {
			a, b, c := m.Corners(t)
			total += Area(a, b, c)
		}
	}
	return total
}

// Bounds returns the bounding box of all vertices.
func (m *Mesh) Bounds() (lo, hi Point) {
	lo = Point{math.Inf(1), math.Inf(1)}
	hi = Point{math.Inf(-1), math.Inf(-1)}
	for _, p := range m.Pts {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
	}
	return lo, hi
}
