package main

import "repro/internal/control"

// The two baselines from outside the paper that the -converge table
// sets beside Algorithm 1. No job can name them, so they live here,
// beside the one experiment that runs them. Both use the paper's clamps
// and Algorithm 1's averaging window.
const (
	baseMMin, baseMMax = 2, 1024
	baseT              = 4
	aimdAdd            = 2   // additive increase per window under target
	aimdMul            = 0.5 // multiplicative decrease per window over it
)

// windowAvg averages observed ratios over windows of baseT rounds.
type windowAvg struct {
	acc float64
	cnt int
}

// add feeds one ratio and reports the window's average when it closes.
func (w *windowAvg) add(r float64) (float64, bool) {
	w.acc += r
	w.cnt++
	if w.cnt < baseT {
		return 0, false
	}
	avg := w.acc / float64(w.cnt)
	w.acc, w.cnt = 0, 0
	return avg, true
}

// bisection exploits Prop. 1 (monotonicity of r̄) per Eq. 30: it brackets
// μ between a known-low and known-high processor count, doubling upward
// until a bracket exists and then halving the bracket. Robust but slower
// to converge than the hybrid, and it cannot track a drifting target
// without re-bracketing (handled by widening on bracket violation).
type bisection struct {
	rho    float64
	m      int
	lo, hi int // hi == 0 means "no upper bracket yet"
	win    windowAvg
}

func newBisection(rho float64, m0 int) *bisection {
	return &bisection{rho: rho, m: m0, lo: baseMMin}
}

// Name implements control.Controller.
func (c *bisection) Name() string { return "bisection" }

// M implements control.Controller.
func (c *bisection) M() int { return c.m }

// Observe implements control.Controller.
func (c *bisection) Observe(r float64) {
	avg, closed := c.win.add(r)
	if !closed {
		return
	}
	if avg < c.rho {
		// Current m is feasible: raise the floor.
		if c.m > c.lo {
			c.lo = c.m
		}
		if c.hi == 0 {
			c.m = control.Clamp(c.m*2, baseMMin, baseMMax) // expansion phase
			return
		}
	} else {
		// Too many conflicts: m is an upper bracket.
		if c.hi == 0 || c.m < c.hi {
			c.hi = c.m
		}
		if c.hi <= c.lo { // target drifted below the old floor
			c.lo = baseMMin
		}
	}
	if c.hi != 0 {
		c.m = control.Clamp((c.lo+c.hi)/2, baseMMin, baseMMax)
	}
}

// aimd is the congestion-control-style baseline: additive increase while
// under target, multiplicative decrease when over. It situates the
// paper's recurrences against the standard adaptive heuristic.
type aimd struct {
	rho float64
	m   int
	win windowAvg
}

func newAIMD(rho float64, m0 int) *aimd { return &aimd{rho: rho, m: m0} }

// Name implements control.Controller.
func (c *aimd) Name() string { return "aimd" }

// M implements control.Controller.
func (c *aimd) M() int { return c.m }

// Observe implements control.Controller.
func (c *aimd) Observe(r float64) {
	avg, closed := c.win.add(r)
	if !closed {
		return
	}
	if avg <= c.rho {
		c.m += aimdAdd
	} else {
		c.m = int(float64(c.m) * aimdMul)
	}
	c.m = control.Clamp(c.m, baseMMin, baseMMax)
}
