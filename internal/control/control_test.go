package control

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultHybridConfig(0.25)
	if c.M0 != 2 || c.MMin != 2 || c.MMax != 1024 {
		t.Errorf("clamps %d/%d/%d differ from paper", c.M0, c.MMin, c.MMax)
	}
	if c.T != 4 {
		t.Errorf("T = %d, want 4", c.T)
	}
	if c.RMin != 0.03 || c.Alpha0 != 0.25 || c.Alpha1 != 0.06 {
		t.Errorf("thresholds %v/%v/%v differ from paper", c.RMin, c.Alpha0, c.Alpha1)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*HybridConfig){
		func(c *HybridConfig) { c.Rho = -0.1 },
		func(c *HybridConfig) { c.Rho = 1.0 },
		func(c *HybridConfig) { c.MMin = 0 },
		func(c *HybridConfig) { c.MMax = 1 },
		func(c *HybridConfig) { c.M0 = 0 },
		func(c *HybridConfig) { c.T = 0 },
		func(c *HybridConfig) { c.RMin = 0 },
		func(c *HybridConfig) { c.Alpha0 = 0.01 }, // below Alpha1
		func(c *HybridConfig) { c.SmallMT = 0 },
	}
	for i, mutate := range bad {
		c := DefaultHybridConfig(0.2)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// Feed a constant ratio and check the update rules fire exactly as the
// pseudo-code prescribes.
func TestHybridRecurrenceBFires(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.SmallMThreshold = 0 // pure Algorithm 1, no small-m special case
	cfg.M0 = 100
	h := NewHybrid(cfg)
	// r = 0.05: alpha = |1-0.25| = 0.75 > 0.25 → Recurrence B:
	// m = ceil(0.20/0.05 * 100) = 400.
	for i := 0; i < 4; i++ {
		h.Observe(0.05)
	}
	if h.M() != 400 {
		t.Fatalf("m = %d, want 400", h.M())
	}
	if h.UpdatesB != 1 || h.UpdatesA != 0 {
		t.Fatalf("updates B/A = %d/%d", h.UpdatesB, h.UpdatesA)
	}
}

func TestHybridRecurrenceAFires(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.SmallMThreshold = 0
	cfg.M0 = 100
	h := NewHybrid(cfg)
	// r = 0.16: alpha = 0.2 ∈ (0.06, 0.25] → Recurrence A:
	// m = ceil((1-0.16+0.20)*100) = 104.
	for i := 0; i < 4; i++ {
		h.Observe(0.16)
	}
	if h.M() != 104 {
		t.Fatalf("m = %d, want 104", h.M())
	}
	if h.UpdatesA != 1 || h.UpdatesB != 0 {
		t.Fatalf("updates B/A = %d/%d", h.UpdatesB, h.UpdatesA)
	}
}

func TestHybridDeadBandHolds(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.SmallMThreshold = 0
	cfg.M0 = 100
	h := NewHybrid(cfg)
	// r = 0.21: alpha = 0.05 ≤ 0.06 → no change (locality preservation).
	for i := 0; i < 4; i++ {
		h.Observe(0.21)
	}
	if h.M() != 100 {
		t.Fatalf("m = %d, want unchanged 100", h.M())
	}
	if h.UpdatesNone != 1 {
		t.Fatalf("UpdatesNone = %d", h.UpdatesNone)
	}
}

func TestHybridRMinFloorPreventsBlowup(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.SmallMThreshold = 0
	cfg.M0 = 50
	h := NewHybrid(cfg)
	// Zero observed conflicts: without the floor m would be infinite;
	// with r_min = 3% the jump is ρ/r_min = 6.67×.
	for i := 0; i < 4; i++ {
		h.Observe(0)
	}
	want := int(math.Ceil(0.20 / 0.03 * 50))
	if h.M() != want {
		t.Fatalf("m = %d, want %d", h.M(), want)
	}
}

func TestHybridClampsToMMax(t *testing.T) {
	cfg := DefaultHybridConfig(0.25)
	cfg.SmallMThreshold = 0
	cfg.M0 = 1000
	h := NewHybrid(cfg)
	for i := 0; i < 4; i++ {
		h.Observe(0)
	}
	if h.M() != 1024 {
		t.Fatalf("m = %d, want clamp at 1024", h.M())
	}
}

func TestHybridClampsToMMin(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.SmallMThreshold = 0
	cfg.M0 = 2
	h := NewHybrid(cfg)
	// Catastrophic conflicts drive m down but never below 2 (Remark 1).
	for w := 0; w < 5; w++ {
		for i := 0; i < 4; i++ {
			h.Observe(0.95)
		}
	}
	if h.M() != 2 {
		t.Fatalf("m = %d, want floor 2", h.M())
	}
}

func TestHybridWindowAveraging(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.SmallMThreshold = 0
	cfg.M0 = 100
	h := NewHybrid(cfg)
	// Three noisy observations then one: only the window average (0.05)
	// matters, and no update happens before the window closes.
	h.Observe(0.20)
	if h.M() != 100 {
		t.Fatal("update before window boundary")
	}
	h.Observe(0.0)
	h.Observe(0.0)
	h.Observe(0.0)
	if h.M() != 400 { // avg 0.05 → B fires as in TestHybridRecurrenceBFires
		t.Fatalf("m = %d, want 400", h.M())
	}
}

func TestHybridSmallMRegimeUsesLongerWindow(t *testing.T) {
	cfg := DefaultHybridConfig(0.20)
	cfg.M0 = 5 // below SmallMThreshold = 20
	h := NewHybrid(cfg)
	for i := 0; i < cfg.T; i++ { // only the big-m window's worth
		h.Observe(0)
	}
	if h.M() != 5 {
		t.Fatalf("small-m regime should wait %d rounds, m changed to %d", cfg.SmallMT, h.M())
	}
	for i := cfg.T; i < cfg.SmallMT; i++ {
		h.Observe(0)
	}
	if h.M() <= 5 {
		t.Fatal("small-m window closed but no update")
	}
}

func TestRecurrenceAUpdate(t *testing.T) {
	c := NewRecurrenceA(0.20, 100)
	for i := 0; i < 4; i++ {
		c.Observe(0.05)
	}
	// m = ceil((1-0.05+0.20)*100) = 115: slow compared to B's 400.
	if c.M() != 115 {
		t.Fatalf("m = %d, want 115", c.M())
	}
}

func TestRecurrenceBUpdate(t *testing.T) {
	c := NewRecurrenceB(0.20, 100)
	for i := 0; i < 4; i++ {
		c.Observe(0.40)
	}
	// m = ceil(0.20/0.40*100) = 50.
	if c.M() != 50 {
		t.Fatalf("m = %d, want 50", c.M())
	}
}

// refRecurrence is a transcription of Eq. 32 (A) and Eq. 33 (B) on their
// own: a T = 4 window, clamps [2, 1024], and the r_min = 0.03 floor on B.
type refRecurrence struct {
	b        bool
	rho, acc float64
	m, cnt   int
}

func (c *refRecurrence) observe(r float64) {
	c.acc += r
	c.cnt++
	if c.cnt < 4 {
		return
	}
	avg := c.acc / float64(c.cnt)
	c.acc, c.cnt = 0, 0
	next := (1 - avg + c.rho) * float64(c.m)
	if c.b {
		next = c.rho / math.Max(avg, 0.03) * float64(c.m)
	}
	c.m = Clamp(int(math.Ceil(next)), 2, 1024)
}

// The Recurrence A and B presets of Algorithm 1 take the same m as the
// recurrences alone after every observation, on random windows that
// include ones averaging exactly ρ (where the presets' dead-band of
// width 0 holds m, and the recurrences leave it unchanged too).
func TestRecurrencePresetsMatchEquations(t *testing.T) {
	r := rng.New(7)
	for _, rho := range []float64{0.05, 0.1, 0.2, 0.25, 0.3, 0.45} {
		for _, b := range []bool{false, true} {
			m0 := 2 + r.Intn(1023)
			var c Controller = NewRecurrenceA(rho, m0)
			if b {
				c = NewRecurrenceB(rho, m0)
			}
			ref := &refRecurrence{b: b, rho: rho, m: m0}
			exact := 0
			for w := 0; w < 20000; w++ {
				var win [4]float64
				switch r.Intn(5) {
				case 0: // averages exactly ρ
					win = [4]float64{0, 2 * rho, 0, 2 * rho}
				case 1:
					win = [4]float64{rho, rho, rho, rho}
				case 2: // near the target
					for i := range win {
						win[i] = rho * (0.9 + 0.2*r.Float64())
					}
				case 3: // no conflicts: B's r_min floor
					win = [4]float64{}
				default:
					for i := range win {
						win[i] = r.Float64()
					}
				}
				if (win[0]+win[1]+win[2]+win[3])/4 == rho {
					exact++
				}
				for _, x := range win {
					c.Observe(x)
					ref.observe(x)
					if c.M() != ref.m {
						t.Fatalf("%s ρ=%v window %d %v: m = %d, want %d", c.Name(), rho, w, win, c.M(), ref.m)
					}
				}
			}
			if exact == 0 {
				t.Fatalf("%s ρ=%v: no window averaged exactly ρ", c.Name(), rho)
			}
		}
	}
}

func TestFixedNeverMoves(t *testing.T) {
	c := Fixed{Procs: 64}
	for i := 0; i < 100; i++ {
		c.Observe(0.9)
	}
	if c.M() != 64 {
		t.Fatal("fixed controller moved")
	}
}
