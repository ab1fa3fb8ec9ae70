package control

import (
	"math"

	"repro/internal/analytic"
)

// This file implements the paper's §4 "smarter initial value": if an
// estimate of the CC graph's average degree d is available, starting at
// m₀ = n/(2(d+1)) guarantees (by Cor. 3, α = 1/2) a worst-case conflict
// ratio of at most ≈21.3 % — skipping most of the cold-start ramp of
// m₀ = 2.

// NewHybridSmartStart returns Algorithm 1 initialized at the Cor. 3
// safe allocation for a CC graph with n nodes and average degree d,
// instead of the cold m₀ = 2.
func NewHybridSmartStart(rho float64, n int, d float64) *Hybrid {
	cfg := DefaultHybridConfig(rho)
	cfg.M0 = analytic.SuggestedInitialM(n, d)
	if cfg.M0 > cfg.MMax {
		cfg.M0 = cfg.MMax
	}
	return NewHybrid(cfg)
}

// maxAlphaFor inverts Cor. 3: the largest α such that the worst-case
// conflict-ratio bound at m = α·n/(d+1) stays within rho. Found by
// bisection (the bound is increasing in α). Returns 0 if even α→0
// exceeds rho (impossible for rho > 0).
func maxAlphaFor(rho, d float64) float64 {
	if rho <= 0 {
		return 0
	}
	lo, hi := 0.0, 1.0
	// Expand until the bound exceeds rho (bound → 1 as α → ∞).
	for analytic.Cor3ConflictBound(hi, d) < rho {
		hi *= 2
		if hi > 1e9 {
			return math.Inf(1) // rho ≥ sup of the bound: any α is safe
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if analytic.Cor3ConflictBound(mid, d) <= rho {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// GuaranteedM returns the largest m with a *worst-case* conflict-ratio
// guarantee ≤ rho for a CC graph with n nodes and degree d — the
// theory-backed allocation a conservative scheduler could use without
// any feedback at all.
func GuaranteedM(rho float64, n int, d float64) int {
	alpha := maxAlphaFor(rho, d)
	if math.IsInf(alpha, 1) {
		return n
	}
	m := int(alpha * float64(n) / (d + 1))
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	return m
}
