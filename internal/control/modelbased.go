package control

import "math"

// ModelBased is the §5-outlook controller ("whether some statical
// properties of the behavior of irregular algorithms can be modeled,
// extracted and exploited to build better controllers, able to
// dynamically adapt to the different execution phases"): it *fits* the
// initial-linearity model of Fig. 2,
//
//	r̄(m) ≈ a·(m−1),   a = Δr̄(1) = d/(2(n−1))  (Prop. 2),
//
// online by exponentially forgetting least squares through the origin,
// and jumps directly to the model's target m* = ρ/â + 1. A residual
// detector (CUSUM-style) notices when observations stop matching the
// fitted line — a phase change — and resets the fit so re-learning is
// immediate.
//
// Compared to Algorithm 1 the model-based controller converges in one
// window once the slope is identified and, because the slope (not the
// position) is the state, it survives target changes for free.
type ModelBased struct {
	Rho        float64
	MMin, MMax int
	T          int     // observation window (paper-style averaging)
	Lambda     float64 // forgetting factor per window, in (0, 1]
	Deadband   float64 // relative dead-band on m updates
	ResetAfter int     // consecutive bad residuals before a fit reset
	ResidualK  float64 // residual tolerance, relative to ρ

	m   int
	acc float64
	cnt int

	sRM float64 // Σ λ-weighted r·(m−1)
	sMM float64 // Σ λ-weighted (m−1)²
	bad int     // consecutive out-of-tolerance windows

	Resets int // fit resets (phase changes detected)
}

// NewModelBased returns the controller with tuned defaults.
func NewModelBased(rho float64, m0 int) *ModelBased {
	return &ModelBased{
		Rho:        rho,
		MMin:       2,
		MMax:       1024,
		T:          4,
		Lambda:     0.85,
		Deadband:   0.06,
		ResetAfter: 2,
		ResidualK:  0.75,
		m:          m0,
	}
}

// Name implements Controller.
func (c *ModelBased) Name() string { return "model-based" }

// M implements Controller.
func (c *ModelBased) M() int { return c.m }

// Slope returns the current slope estimate â (0 before any signal).
func (c *ModelBased) Slope() float64 {
	if c.sMM == 0 {
		return 0
	}
	return c.sRM / c.sMM
}

// Observe implements Controller.
func (c *ModelBased) Observe(r float64) {
	c.acc += r
	c.cnt++
	if c.cnt < c.T {
		return
	}
	avg := c.acc / float64(c.cnt)
	c.acc, c.cnt = 0, 0
	w := float64(c.m - 1)
	if w <= 0 {
		// m = 1 carries no slope information; drift upward to probe.
		c.m = Clamp(c.m*2, c.MMin, c.MMax)
		return
	}

	// Phase-change detection before absorbing the sample: compare the
	// observation against the current fit.
	if c.sMM > 0 {
		predicted := c.Slope() * w
		if math.Abs(avg-predicted) > c.ResidualK*c.Rho {
			c.bad++
			if c.bad >= c.ResetAfter {
				c.sRM, c.sMM = 0, 0
				c.bad = 0
				c.Resets++
			}
		} else {
			c.bad = 0
		}
	}

	// Absorb the sample with exponential forgetting.
	c.sRM = c.Lambda*c.sRM + avg*w
	c.sMM = c.Lambda*c.sMM + w*w

	a := c.Slope()
	if a <= 0 {
		// No conflicts observed at all: the model says parallelism is
		// free; probe upward geometrically.
		c.m = Clamp(c.m*2, c.MMin, c.MMax)
		return
	}
	target := int(math.Ceil(c.Rho/a)) + 1
	if math.Abs(float64(target-c.m)) > c.Deadband*float64(c.m) {
		c.m = Clamp(target, c.MMin, c.MMax)
	}
}
