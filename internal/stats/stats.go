// Package stats provides the small statistical toolkit the experiment
// harnesses rely on: online moment accumulators, confidence intervals,
// and time-series summaries.
//
// Everything is plain float64 arithmetic over stdlib math; the package has
// no dependencies and no global state.
package stats

import (
	"fmt"
	"math"
)

// Accumulator computes running mean and variance using Welford's
// numerically stable online algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean, or 0 if empty.
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest observation, or 0 if empty.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation, or 0 if empty.
func (a *Accumulator) Max() float64 { return a.max }

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

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of an approximate 95% confidence interval
// for the mean (normal approximation, z = 1.96).
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// Merge folds another accumulator into a (Chan et al. parallel update).
// Min/max are combined too.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	a.mean += delta * float64(b.n) / float64(n)
	a.n = n
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

// String renders "mean ± ci95 (n=N)".
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", a.Mean(), a.CI95(), a.n)
}

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

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	return a.Variance()
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Series is an ordered sequence of (x, y) observations, used to record
// controller trajectories and conflict-ratio curves.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// TailMean returns the mean of the last k Y values (all values if k
// exceeds the length).
func (s *Series) TailMean(k int) float64 {
	if k > len(s.Y) {
		k = len(s.Y)
	}
	if k == 0 {
		return 0
	}
	return Mean(s.Y[len(s.Y)-k:])
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
