// Package control implements the paper's processor-allocation controllers
// (§4): the hybrid Algorithm 1 — the paper's contribution — plus the two
// recurrences it hybridizes (Recurrence A, Eq. 32; Recurrence B, Eq. 33),
// a bisection controller derived from the monotonicity of r̄ (Eq. 30), and
// fixed-m / AIMD baselines used in ablation experiments.
//
// A Controller is a pure state machine: M() yields the number of
// processors to launch this round, Observe(r) feeds back the measured
// conflict ratio of the round just executed. Controllers are agnostic to
// what produced r — the model simulator (internal/sched) and the
// goroutine-based speculative runtime (internal/speculation) both drive
// them through this interface.
package control

import (
	"fmt"
	"math"
)

// Controller chooses the number of processors round by round.
type Controller interface {
	// M returns the processor count to use for the next round.
	M() int
	// Observe feeds the conflict ratio measured for the round that was
	// just executed with M() processors. Only *speculative* rounds are
	// observed: drives with a conflict-free phase (the colored
	// super-rounds of speculation.Drive in ModeColored, whose r is ~0 by
	// construction) must not feed it, so r̄ keeps estimating the
	// contention the controller actually allocates against and Algorithm
	// 1 resumes from consistent state when speculation resumes.
	Observe(r float64)
	// Name identifies the controller in reports.
	Name() string
}

// Telemetry is an optional interface for controllers that expose
// internal decision counters for monitoring (e.g. a service's job
// status endpoint). Controllers are single-driver state machines, so
// Counters must be called from the goroutine driving M/Observe; callers
// that publish the result to other goroutines must copy it under their
// own synchronization.
type Telemetry interface {
	// Counters returns named decision counts accumulated so far.
	Counters() map[string]int
}

// Clamp bounds v to [lo, hi].
func Clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// HybridConfig carries the tunable parameters of Algorithm 1. The zero
// value is not valid; start from DefaultHybridConfig.
type HybridConfig struct {
	Rho    float64 // ρ: target conflict ratio
	M0     int     // initial processor count
	MMin   int     // lower clamp (paper: 2 — Remark 1)
	MMax   int     // upper clamp (paper: 1024)
	T      int     // averaging window in rounds (paper: 4)
	RMin   float64 // floor applied to the averaged ratio in Recurrence B (paper: 3%)
	Alpha0 float64 // |1−r/ρ| threshold above which Recurrence B fires (paper: 25%)
	Alpha1 float64 // |1−r/ρ| threshold above which Recurrence A fires (paper: 6%)

	// Small-m regime (Fig. 3 caption: "different parameters for m
	// greater or smaller than 20"). When M < SmallMThreshold the
	// controller uses SmallMT, SmallMAlpha0 and SmallMAlpha1 instead,
	// because the variance of r is much larger at small m (§4.1).
	// SmallMThreshold = 0 disables the special regime.
	SmallMThreshold int
	SmallMT         int
	SmallMAlpha0    float64
	SmallMAlpha1    float64
}

// DefaultHybridConfig returns the parameter set of Algorithm 1 as printed
// in the paper, with the small-m regime tuned per §4.1's guidance.
func DefaultHybridConfig(rho float64) HybridConfig {
	return HybridConfig{
		Rho:    rho,
		M0:     2,
		MMin:   2,
		MMax:   1024,
		T:      4,
		RMin:   0.03,
		Alpha0: 0.25,
		Alpha1: 0.06,

		SmallMThreshold: 20,
		SmallMT:         8,    // longer window: small-m ratios are noisy
		SmallMAlpha0:    0.40, // wider bands: avoid reacting to noise
		SmallMAlpha1:    0.12,
	}
}

// Validate reports whether the configuration is usable.
func (c HybridConfig) Validate() error {
	switch {
	case c.Rho < 0 || c.Rho >= 1:
		return fmt.Errorf("control: rho %v out of [0,1)", c.Rho)
	case c.MMin < 1 || c.MMax < c.MMin:
		return fmt.Errorf("control: bad clamp [%d,%d]", c.MMin, c.MMax)
	case c.M0 < 1:
		return fmt.Errorf("control: bad m0 %d", c.M0)
	case c.T < 1:
		return fmt.Errorf("control: bad window T=%d", c.T)
	case c.RMin <= 0:
		return fmt.Errorf("control: rmin %v must be positive", c.RMin)
	case c.Alpha0 < c.Alpha1:
		return fmt.Errorf("control: alpha0 %v < alpha1 %v", c.Alpha0, c.Alpha1)
	case c.SmallMThreshold > 0 && (c.SmallMT < 1 || c.SmallMAlpha0 < c.SmallMAlpha1):
		return fmt.Errorf("control: bad small-m regime")
	}
	return nil
}

// Hybrid is Algorithm 1: Recurrence B (m ← ⌈ρ/r·m⌉) for coarse, fast
// convergence when the averaged ratio is far from target, Recurrence A
// (m ← ⌈(1−r+ρ)·m⌉) for fine, stable adjustment when moderately off, and
// no change inside the α₁ dead-band (which avoids steady-state jitter
// that would churn task-to-processor locality, §4.1).
type Hybrid struct {
	cfg HybridConfig
	m   int
	acc float64 // sum of observed ratios in the current window
	cnt int     // observations in the current window

	// Updates counts window-boundary decisions, split by which rule
	// fired; exposed for ablation reporting.
	UpdatesB, UpdatesA, UpdatesNone int
}

// NewHybrid builds the Algorithm 1 controller; it panics on an invalid
// configuration (programmer error).
func NewHybrid(cfg HybridConfig) *Hybrid {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Hybrid{cfg: cfg, m: Clamp(cfg.M0, cfg.MMin, cfg.MMax)}
}

// Name implements Controller.
func (h *Hybrid) Name() string { return "hybrid" }

// M implements Controller.
func (h *Hybrid) M() int { return h.m }

// Counters implements Telemetry: how often each hybrid rule fired at
// window boundaries.
func (h *Hybrid) Counters() map[string]int {
	return map[string]int{
		"updates_b":    h.UpdatesB,
		"updates_a":    h.UpdatesA,
		"updates_none": h.UpdatesNone,
	}
}

// window returns the effective (T, α₀, α₁) for the current m, honoring
// the small-m regime if enabled.
func (h *Hybrid) window() (int, float64, float64) {
	c := h.cfg
	if c.SmallMThreshold > 0 && h.m < c.SmallMThreshold {
		return c.SmallMT, c.SmallMAlpha0, c.SmallMAlpha1
	}
	return c.T, c.Alpha0, c.Alpha1
}

// Observe implements Controller: it accumulates the measured ratio and,
// at window boundaries, applies the hybrid update.
func (h *Hybrid) Observe(r float64) {
	h.acc += r
	h.cnt++
	T, a0, a1 := h.window()
	if h.cnt < T {
		return
	}
	avg := h.acc / float64(h.cnt)
	h.acc, h.cnt = 0, 0

	alpha := math.Abs(1 - avg/h.cfg.Rho)
	switch {
	case alpha > a0:
		// Recurrence B: assume initial linearity of r̄(m) (Fig. 2) and
		// jump straight to the ratio-matching m. Floor r to avoid the
		// unbounded jump when no conflicts were seen.
		rb := avg
		if rb < h.cfg.RMin {
			rb = h.cfg.RMin
		}
		h.m = int(math.Ceil(h.cfg.Rho / rb * float64(h.m)))
		h.UpdatesB++
	case alpha > a1:
		// Recurrence A: small proportional step.
		h.m = int(math.Ceil((1 - avg + h.cfg.Rho) * float64(h.m)))
		h.UpdatesA++
	default:
		h.UpdatesNone++
	}
	h.m = Clamp(h.m, h.cfg.MMin, h.cfg.MMax)
}

// RecurrenceA is the pure Recurrence A controller (Eq. 32) with the same
// T-averaging as the hybrid; used as the comparison baseline of Fig. 3.
type RecurrenceA struct {
	Rho        float64
	MMin, MMax int
	T          int
	m          int
	acc        float64
	cnt        int
}

// NewRecurrenceA builds the baseline with paper-default clamps.
func NewRecurrenceA(rho float64, m0 int) *RecurrenceA {
	return &RecurrenceA{Rho: rho, MMin: 2, MMax: 1024, T: 4, m: m0}
}

// Name implements Controller.
func (c *RecurrenceA) Name() string { return "recurrence-a" }

// M implements Controller.
func (c *RecurrenceA) M() int { return c.m }

// Observe implements Controller.
func (c *RecurrenceA) Observe(r float64) {
	c.acc += r
	c.cnt++
	if c.cnt < c.T {
		return
	}
	avg := c.acc / float64(c.cnt)
	c.acc, c.cnt = 0, 0
	c.m = Clamp(int(math.Ceil((1-avg+c.Rho)*float64(c.m))), c.MMin, c.MMax)
}

// RecurrenceB is the pure Recurrence B controller (Eq. 33) with
// T-averaging and the r_min floor. Fast but noisy — the other half of
// the hybrid.
type RecurrenceB struct {
	Rho        float64
	RMin       float64
	MMin, MMax int
	T          int
	m          int
	acc        float64
	cnt        int
}

// NewRecurrenceB builds the baseline with paper-default clamps.
func NewRecurrenceB(rho float64, m0 int) *RecurrenceB {
	return &RecurrenceB{Rho: rho, RMin: 0.03, MMin: 2, MMax: 1024, T: 4, m: m0}
}

// Name implements Controller.
func (c *RecurrenceB) Name() string { return "recurrence-b" }

// M implements Controller.
func (c *RecurrenceB) M() int { return c.m }

// Observe implements Controller.
func (c *RecurrenceB) Observe(r float64) {
	c.acc += r
	c.cnt++
	if c.cnt < c.T {
		return
	}
	avg := c.acc / float64(c.cnt)
	c.acc, c.cnt = 0, 0
	if avg < c.RMin {
		avg = c.RMin
	}
	c.m = Clamp(int(math.Ceil(c.Rho/avg*float64(c.m))), c.MMin, c.MMax)
}

// Bisection exploits Prop. 1 (monotonicity of r̄) per Eq. 30: it brackets
// μ between a known-low and known-high processor count, doubling upward
// until a bracket exists and then halving the bracket. Robust but slower
// to converge than the hybrid, and it cannot track a drifting target
// without re-bracketing (handled by widening on bracket violation).
type Bisection struct {
	Rho        float64
	MMin, MMax int
	T          int
	m          int
	lo, hi     int // hi == 0 means "no upper bracket yet"
	acc        float64
	cnt        int
}

// NewBisection builds the bisection controller.
func NewBisection(rho float64, m0 int) *Bisection {
	return &Bisection{Rho: rho, MMin: 2, MMax: 1024, T: 4, m: m0, lo: 2}
}

// Name implements Controller.
func (c *Bisection) Name() string { return "bisection" }

// M implements Controller.
func (c *Bisection) M() int { return c.m }

// Observe implements Controller.
func (c *Bisection) Observe(r float64) {
	c.acc += r
	c.cnt++
	if c.cnt < c.T {
		return
	}
	avg := c.acc / float64(c.cnt)
	c.acc, c.cnt = 0, 0
	if avg < c.Rho {
		// Current m is feasible: raise the floor.
		if c.m > c.lo {
			c.lo = c.m
		}
		if c.hi == 0 {
			c.m = Clamp(c.m*2, c.MMin, c.MMax) // expansion phase
			return
		}
	} else {
		// Too many conflicts: m is an upper bracket.
		if c.hi == 0 || c.m < c.hi {
			c.hi = c.m
		}
		if c.hi <= c.lo { // target drifted below the old floor
			c.lo = c.MMin
		}
	}
	if c.hi != 0 {
		c.m = Clamp((c.lo+c.hi)/2, c.MMin, c.MMax)
	}
}

// Fixed always returns the same m — the non-adaptive allocation the paper
// argues against for irregular algorithms.
type Fixed struct{ Procs int }

// Name implements Controller.
func (c Fixed) Name() string { return fmt.Sprintf("fixed-%d", c.Procs) }

// M implements Controller.
func (c Fixed) M() int { return c.Procs }

// Observe implements Controller.
func (c Fixed) Observe(float64) {}

// PI is a textbook proportional-integral controller on the error
// e = ρ − r, actuating multiplicatively (the plant gain of r̄(m) scales
// with m, so relative steps keep loop gain roughly constant). Included
// as the classical-control baseline the paper's recurrences implicitly
// compete with: Recurrence A is a pure proportional controller with
// gain 1 in these coordinates.
type PI struct {
	Rho        float64
	Kp, Ki     float64
	MMin, MMax int
	T          int

	m        int
	integral float64
	acc      float64
	cnt      int
}

// NewPI builds the PI baseline with conservative default gains.
func NewPI(rho float64, m0 int) *PI {
	return &PI{Rho: rho, Kp: 1.2, Ki: 0.3, MMin: 2, MMax: 1024, T: 4, m: m0}
}

// Name implements Controller.
func (c *PI) Name() string { return "pi" }

// M implements Controller.
func (c *PI) M() int { return c.m }

// Observe implements Controller.
func (c *PI) Observe(r float64) {
	c.acc += r
	c.cnt++
	if c.cnt < c.T {
		return
	}
	avg := c.acc / float64(c.cnt)
	c.acc, c.cnt = 0, 0
	err := c.Rho - avg
	c.integral += err
	// Anti-windup: keep the integral inside actuation range.
	if c.integral > 2 {
		c.integral = 2
	}
	if c.integral < -2 {
		c.integral = -2
	}
	factor := 1 + c.Kp*err + c.Ki*c.integral
	if factor < 0.25 {
		factor = 0.25
	}
	if factor > 4 {
		factor = 4
	}
	c.m = Clamp(int(math.Ceil(float64(c.m)*factor)), c.MMin, c.MMax)
}

// AIMD is the congestion-control-style baseline: additive increase while
// under target, multiplicative decrease when over. Included to situate
// the paper's recurrences against the standard adaptive heuristic.
type AIMD struct {
	Rho        float64
	Add        int     // additive step (default 2)
	Mul        float64 // decrease factor in (0,1) (default 0.5)
	MMin, MMax int
	T          int
	m          int
	acc        float64
	cnt        int
}

// NewAIMD builds the AIMD baseline.
func NewAIMD(rho float64, m0 int) *AIMD {
	return &AIMD{Rho: rho, Add: 2, Mul: 0.5, MMin: 2, MMax: 1024, T: 4, m: m0}
}

// Name implements Controller.
func (c *AIMD) Name() string { return "aimd" }

// M implements Controller.
func (c *AIMD) M() int { return c.m }

// Observe implements Controller.
func (c *AIMD) Observe(r float64) {
	c.acc += r
	c.cnt++
	if c.cnt < c.T {
		return
	}
	avg := c.acc / float64(c.cnt)
	c.acc, c.cnt = 0, 0
	if avg <= c.Rho {
		c.m += c.Add
	} else {
		c.m = int(float64(c.m) * c.Mul)
	}
	c.m = Clamp(c.m, c.MMin, c.MMax)
}
