// Package control implements the paper's processor-allocation controllers
// (§4): the hybrid Algorithm 1 — the paper's contribution — with presets
// that keep only one of the two recurrences it hybridizes (Recurrence A,
// Eq. 32; Recurrence B, Eq. 33), the model-based §5-outlook controller,
// and the fixed-m baseline.
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
	cfg  HybridConfig
	name string
	m    int
	acc  float64 // sum of observed ratios in the current window
	cnt  int     // observations in the current window

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
	return &Hybrid{cfg: cfg, name: "hybrid", m: Clamp(cfg.M0, cfg.MMin, cfg.MMax)}
}

// NewRecurrenceA is Algorithm 1 with only Recurrence A (Eq. 32) left:
// α₀ = +∞ so B never fires, α₁ = 0 so A fires on every window that
// misses ρ, and no small-m regime. It is the Fig. 3 comparison baseline.
func NewRecurrenceA(rho float64, m0 int) *Hybrid {
	return newPreset("recurrence-a", rho, m0, math.Inf(1))
}

// NewRecurrenceB is Algorithm 1 with only Recurrence B (Eq. 33) left:
// α₀ = α₁ = 0 so B, with its r_min floor, fires on every window that
// misses ρ, and no small-m regime. Fast but noisy.
func NewRecurrenceB(rho float64, m0 int) *Hybrid {
	return newPreset("recurrence-b", rho, m0, 0)
}

func newPreset(name string, rho float64, m0 int, alpha0 float64) *Hybrid {
	cfg := DefaultHybridConfig(rho)
	cfg.M0, cfg.Alpha0, cfg.Alpha1, cfg.SmallMThreshold = m0, alpha0, 0, 0
	h := NewHybrid(cfg)
	h.name = name
	return h
}

// Name implements Controller.
func (h *Hybrid) Name() string { return h.name }

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

// Fixed always returns the same m — the non-adaptive allocation the paper
// argues against for irregular algorithms.
type Fixed struct{ Procs int }

// Name implements Controller.
func (c Fixed) Name() string { return fmt.Sprintf("fixed-%d", c.Procs) }

// M implements Controller.
func (c Fixed) M() int { return c.Procs }

// Observe implements Controller.
func (c Fixed) Observe(float64) {}
