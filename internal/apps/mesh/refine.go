package mesh

import "math"

// Quality defines when a triangle is "bad" and must be refined. A
// triangle is bad if its area exceeds MaxArea (when MaxArea > 0) or its
// minimum angle falls below MinAngleDeg degrees (when MinAngleDeg > 0).
// Angle-driven refinement terminates for bounds below Chew's ~26.5°
// limit on domains without small input angles (our domains are squares).
//
// OffCenter selects Üngör-style off-center Steiner points instead of
// circumcenters: the insertion point moves from the circumcircle toward
// the triangle's shortest edge just far enough that the new triangle
// formed with that edge meets the angle bound. Off-centers fix the bad
// triangle with a point no farther than necessary, typically reducing
// the number of inserted points.
type Quality struct {
	MaxArea     float64
	MinAngleDeg float64
	OffCenter   bool
}

// IsBad reports whether triangle t violates the quality criteria.
func (q Quality) IsBad(m *Mesh, t *Triangle) bool {
	a, b, c := m.Corners(t)
	if q.MaxArea > 0 && Area(a, b, c) > q.MaxArea {
		return true
	}
	if q.MinAngleDeg > 0 && MinAngle(a, b, c) < q.MinAngleDeg*math.Pi/180 {
		return true
	}
	return false
}

// BadTriangles returns the IDs of all live bad triangles in ascending
// ID order (deterministic: refinement trajectories are reproducible).
func (m *Mesh) BadTriangles(q Quality) []int {
	var out []int
	for id, t := range m.tris {
		if t != nil && q.IsBad(m, t) {
			out = append(out, id)
		}
	}
	return out
}

// encroachedHullEdge finds the hull edge whose diametral circle strictly
// contains p, preferring the most-encroached edge (deterministic tie
// handling); ok is false if none does. Linear in the hull size thanks
// to the mesh's incremental hull index.
func (m *Mesh) encroachedHullEdge(p Point) (u, v int, ok bool) {
	bestDepth := 0.0
	m.EachHullEdge(func(eu, ev int) {
		a := m.Pts[eu]
		b := m.Pts[ev]
		mid := Point{(a.X + b.X) / 2, (a.Y + b.Y) / 2}
		radius2 := a.Dist2(b) / 4
		depth := radius2*(1-1e-12) - p.Dist2(mid)
		if depth > bestDepth {
			bestDepth = depth
			u, v, ok = eu, ev, true
		}
	})
	return u, v, ok
}

// nearestHullEdge returns the hull edge whose midpoint is closest to p.
// The square domain always has hull edges, so ok is false only for a
// mesh with no hull (impossible here, but handled).
func (m *Mesh) nearestHullEdge(p Point) (u, v int, ok bool) {
	best := math.Inf(1)
	m.EachHullEdge(func(eu, ev int) {
		a := m.Pts[eu]
		b := m.Pts[ev]
		mid := Point{(a.X + b.X) / 2, (a.Y + b.Y) / 2}
		if d := p.Dist2(mid); d < best {
			best = d
			u, v, ok = eu, ev, true
		}
	})
	return u, v, ok
}

// offCenter returns the Üngör off-center candidate for triangle (a,b,c)
// with circumcenter cc: the point on the ray from the shortest edge's
// midpoint through cc at which the edge subtends exactly the target
// minimum angle, or cc itself when cc is already closer than that.
func offCenter(a, b, c, cc Point, minAngleRad float64) Point {
	// Locate the shortest edge.
	ea, eb := a, b
	best := a.Dist2(b)
	if d := b.Dist2(c); d < best {
		best, ea, eb = d, b, c
	}
	if d := a.Dist2(c); d < best {
		best, ea, eb = d, a, c
	}
	l := math.Sqrt(best)
	mid := Point{(ea.X + eb.X) / 2, (ea.Y + eb.Y) / 2}
	sin := math.Sin(minAngleRad)
	if sin <= 0 {
		return cc
	}
	radius := l / (2 * sin)
	// Farthest apex still meeting the bound: h = R(1 + cos β).
	h := radius * (1 + math.Cos(minAngleRad))
	dx, dy := cc.X-mid.X, cc.Y-mid.Y
	dist := math.Hypot(dx, dy)
	if dist <= h || dist == 0 {
		return cc
	}
	scale := h / dist
	return Point{mid.X + dx*scale, mid.Y + dy*scale}
}

// RefinePointQ returns the Steiner point whose insertion refines
// triangle t, following Chew's rule: the circumcenter (or, with
// q.OffCenter, the Üngör off-center), unless it encroaches a hull edge
// or escapes the domain, in which case the midpoint of the offending
// hull edge is inserted instead. (Splitting the boundary is essential:
// inserting an interior fallback point — e.g. the centroid — into a
// skinny boundary triangle spawns ever-skinnier children and diverges.)
// ok is false for degenerate triangles.
func (m *Mesh) RefinePointQ(t *Triangle, q Quality) (Point, bool) {
	a, b, c := m.Corners(t)
	if Area(a, b, c) < 1e-300 {
		return Point{}, false
	}
	cc := Circumcenter(a, b, c)
	if q.OffCenter && q.MinAngleDeg > 0 {
		cc = offCenter(a, b, c, cc, q.MinAngleDeg*math.Pi/180)
	}
	if u, v, enc := m.encroachedHullEdge(cc); enc {
		pu, pv := m.Pts[u], m.Pts[v]
		return Point{(pu.X + pv.X) / 2, (pu.Y + pv.Y) / 2}, true
	}
	if m.Locate(cc) >= 0 {
		return cc, true
	}
	// Circumcenter escaped the domain without diametral containment
	// (short boundary edges): split the nearest hull edge, which
	// shrinks the boundary toward containment.
	if u, v, ok := m.nearestHullEdge(cc); ok {
		pu, pv := m.Pts[u], m.Pts[v]
		return Point{(pu.X + pv.X) / 2, (pu.Y + pv.Y) / 2}, true
	}
	return Point{}, false
}

// RefineStats summarizes a refinement run.
type RefineStats struct {
	Inserted  int // points inserted
	Processed int // bad-triangle work items consumed (incl. stale)
	Stale     int // work items whose triangle was already gone or good
	Skipped   int // unimprovable triangles abandoned
}

// Refine sequentially eliminates bad triangles: repeatedly pick a bad
// triangle, insert its refinement point (Bowyer–Watson), and enqueue any
// newly created bad triangles. A midpoint split may leave the original
// triangle bad, in which case it is requeued. maxInserts caps runaway
// refinement (0 means no cap). After a run that does not hit the cap,
// no bad triangles remain.
func (m *Mesh) Refine(q Quality, maxInserts int) RefineStats {
	var st RefineStats
	work := m.BadTriangles(q)
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		st.Processed++
		t := m.tris[id]
		if t == nil || !q.IsBad(m, t) {
			st.Stale++ // cavity of an earlier insertion consumed it
			continue
		}
		p, ok := m.RefinePointQ(t, q)
		if !ok {
			st.Skipped++
			continue
		}
		_, created := m.Insert(p)
		st.Inserted++
		for _, nid := range created {
			if nt := m.tris[nid]; nt != nil && q.IsBad(m, nt) {
				work = append(work, nid)
			}
		}
		// A hull-midpoint split may not have touched t itself.
		if nt := m.tris[id]; nt != nil && q.IsBad(m, nt) {
			work = append(work, id)
		}
		if maxInserts > 0 && st.Inserted >= maxInserts {
			break
		}
	}
	return st
}
