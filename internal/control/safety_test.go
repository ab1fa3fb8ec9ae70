package control

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// Safety property: no controller ever proposes m outside its clamps,
// no matter what (possibly adversarial) ratio sequence it observes.
func TestControllersRespectClampsUnderArbitraryInput(t *testing.T) {
	mks := []func() Controller{
		func() Controller { return NewHybrid(DefaultHybridConfig(0.25)) },
		func() Controller { return NewRecurrenceA(0.25, 2) },
		func() Controller { return NewRecurrenceB(0.25, 2) },
		func() Controller { return NewModelBased(0.25, 2) },
	}
	f := func(seed uint64, raw []byte) bool {
		r := rng.New(seed)
		for _, mk := range mks {
			c := mk()
			for _, b := range raw {
				// Adversarial ratios: mixture of extremes and noise.
				var ratio float64
				switch b % 4 {
				case 0:
					ratio = 0
				case 1:
					ratio = 0.999
				case 2:
					ratio = float64(b) / 255
				default:
					ratio = r.Float64()
				}
				c.Observe(ratio)
				m := c.M()
				if m < 1 || m > 1024 {
					t.Logf("%s proposed m=%d", c.Name(), m)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// NaN/Inf observations must not poison controller state into proposing
// invalid allocations (the runtime can only produce ratios in [0,1],
// but defensive behavior is part of the public contract).
func TestControllersSurviveNonFiniteInput(t *testing.T) {
	mks := []func() Controller{
		func() Controller { return NewHybrid(DefaultHybridConfig(0.25)) },
		func() Controller { return NewRecurrenceA(0.25, 2) },
		func() Controller { return NewRecurrenceB(0.25, 2) },
	}
	for _, mk := range mks {
		c := mk()
		for i := 0; i < 20; i++ {
			c.Observe(math.NaN())
			c.Observe(math.Inf(1))
			c.Observe(0.2)
			if m := c.M(); m < 1 || m > 100000 {
				t.Errorf("%s: m=%d after non-finite input", c.Name(), m)
			}
		}
	}
}
