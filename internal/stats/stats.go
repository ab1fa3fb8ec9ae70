// Package stats provides the small statistical toolkit the experiment
// harnesses rely on: an online moment accumulator, the mean, and the
// relative error.
//
// Everything is plain float64 arithmetic over stdlib math; the package has
// no dependencies and no global state.
package stats

import "math"

// Accumulator computes running mean and variance using Welford's
// numerically stable online algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Mean returns the sample mean, or 0 if empty.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RelErr returns |a-b| / max(|b|, eps) — the relative error of a against
// reference b, safe for b near zero.
func RelErr(a, b float64) float64 {
	d := math.Abs(b)
	if d < 1e-12 {
		d = 1e-12
	}
	return math.Abs(a-b) / d
}
