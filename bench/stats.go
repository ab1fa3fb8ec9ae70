package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(asc))-1e-9)) - 1 // 0.9*100 is 90.00000000000001
	if i < 0 {
		i = 0
	}
	return asc[i]
}

func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

// tailPercentile is the reporting rule for latency tails: the highest of
// p99.9, p99, p90 that still has at least ten samples beyond it, else the
// median. A p99 over 200 samples is the mean of two outliers; this keeps
// a tail metric from being one.
func tailPercentile(n int) float64 {
	for _, den := range []int{1000, 100, 10} {
		if rank := (n*(den-1) + den - 1) / den; n-rank >= 10 { // rank = ceil(n*(den-1)/den)
			return float64(den-1) / float64(den)
		}
	}
	return 0.5
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is what the benchmark driver uses
// to judge run-to-run spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
