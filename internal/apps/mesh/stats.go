package mesh

import "math"

// Stats summarizes the geometric quality of a triangulation — the
// numbers a refinement experiment reports alongside controller metrics.
type Stats struct {
	Triangles    int
	Points       int
	TotalArea    float64
	MinAngleDeg  float64 // worst (smallest) interior angle in the mesh
	MeanAngleDeg float64 // mean of per-triangle minimum angles
	MaxArea      float64
	MinArea      float64
	AngleHist    [18]int // 5°-wide bins of per-triangle min angles, 0..90°
}

// ComputeStats scans all live triangles.
func (m *Mesh) ComputeStats() Stats {
	st := Stats{
		Triangles: m.NumTriangles(),
		Points:    m.NumPoints(),
		MinArea:   math.Inf(1),
	}
	sumAngles := 0.0
	st.MinAngleDeg = math.Inf(1)
	for _, t := range m.tris {
		if t == nil {
			continue
		}
		a, b, c := m.Corners(t)
		area := Area(a, b, c)
		st.TotalArea += area
		if area > st.MaxArea {
			st.MaxArea = area
		}
		if area < st.MinArea {
			st.MinArea = area
		}
		angDeg := MinAngle(a, b, c) * 180 / math.Pi
		sumAngles += angDeg
		if angDeg < st.MinAngleDeg {
			st.MinAngleDeg = angDeg
		}
		bin := int(angDeg / 5)
		if bin < 0 {
			bin = 0
		}
		if bin >= len(st.AngleHist) {
			bin = len(st.AngleHist) - 1
		}
		st.AngleHist[bin]++
	}
	if st.Triangles > 0 {
		st.MeanAngleDeg = sumAngles / float64(st.Triangles)
	} else {
		st.MinAngleDeg = 0
		st.MinArea = 0
	}
	return st
}
