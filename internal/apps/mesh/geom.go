// Package mesh implements 2D Delaunay triangulation (incremental
// Bowyer–Watson) and Delaunay mesh refinement — the paper's running
// example of an amorphous data-parallel algorithm (§2): bad triangles
// are processed in arbitrary order; processing replaces the triangle's
// cavity with new triangles; two bad triangles can be processed in
// parallel iff their cavities do not overlap.
//
// The package provides both a sequential refiner (used as the
// correctness oracle and for parallelism profiling) and a speculative
// adapter that runs refinement on the optimistic runtime with cavity
// overlap as the conflict relation.
package mesh

import "math"

// Point is a 2D point.
type Point struct {
	X, Y float64
}

// Dist2 returns the squared distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Orient2D returns a positive value if a, b, c make a counter-clockwise
// turn, negative for clockwise, and (near) zero for collinear points.
// The magnitude is twice the signed triangle area.
func Orient2D(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// InCircle reports whether point d lies strictly inside the circumcircle
// of the counter-clockwise triangle (a, b, c). Points on the circle
// (within floating-point tolerance) are treated as outside, which keeps
// Bowyer–Watson cavities minimal on near-degenerate input.
func InCircle(a, b, c, d Point) bool {
	adx, ady := a.X-d.X, a.Y-d.Y
	bdx, bdy := b.X-d.X, b.Y-d.Y
	cdx, cdy := c.X-d.X, c.Y-d.Y
	ad2 := adx*adx + ady*ady
	bd2 := bdx*bdx + bdy*bdy
	cd2 := cdx*cdx + cdy*cdy
	det := adx*(bdy*cd2-bd2*cdy) -
		ady*(bdx*cd2-bd2*cdx) +
		ad2*(bdx*cdy-bdy*cdx)
	// Scale-aware tolerance: the determinant grows with the 4th power
	// of coordinate magnitude.
	scale := math.Max(ad2, math.Max(bd2, cd2))
	return det > 1e-12*scale*scale
}

// Circumcenter returns the center of the circle through a, b, c. The
// caller must ensure the triangle is non-degenerate.
func Circumcenter(a, b, c Point) Point {
	d := 2 * Orient2D(a, b, c)
	a2 := a.X*a.X + a.Y*a.Y
	b2 := b.X*b.X + b.Y*b.Y
	c2 := c.X*c.X + c.Y*c.Y
	ux := (a2*(b.Y-c.Y) + b2*(c.Y-a.Y) + c2*(a.Y-b.Y)) / d
	uy := (a2*(c.X-b.X) + b2*(a.X-c.X) + c2*(b.X-a.X)) / d
	return Point{ux, uy}
}

// Area returns the (positive) area of triangle (a, b, c).
func Area(a, b, c Point) float64 { return math.Abs(Orient2D(a, b, c)) / 2 }

// MinAngle returns the smallest interior angle of triangle (a, b, c) in
// radians (0 for degenerate triangles).
func MinAngle(a, b, c Point) float64 {
	la := b.Dist2(c) // side opposite a
	lb := a.Dist2(c)
	lc := a.Dist2(b)
	min := math.Inf(1)
	for _, t := range [3][3]float64{{la, lb, lc}, {lb, la, lc}, {lc, la, lb}} {
		opp, s1, s2 := t[0], t[1], t[2]
		den := 2 * math.Sqrt(s1*s2)
		if den == 0 {
			return 0
		}
		cos := (s1 + s2 - opp) / den
		if cos > 1 {
			cos = 1
		}
		if cos < -1 {
			cos = -1
		}
		if ang := math.Acos(cos); ang < min {
			min = ang
		}
	}
	return min
}

// InTriangle reports whether p lies inside or on the boundary of the
// counter-clockwise triangle (a, b, c).
func InTriangle(p, a, b, c Point) bool {
	eps := -1e-12
	return Orient2D(a, b, p) >= eps && Orient2D(b, c, p) >= eps && Orient2D(c, a, p) >= eps
}
