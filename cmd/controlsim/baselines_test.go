package main

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestAIMD(t *testing.T) {
	c := newAIMD(0.20, 10)
	for i := 0; i < 4; i++ {
		c.Observe(0.0)
	}
	if c.M() != 12 {
		t.Fatalf("additive increase: m = %d, want 12", c.M())
	}
	for i := 0; i < 4; i++ {
		c.Observe(0.9)
	}
	if c.M() != 6 {
		t.Fatalf("multiplicative decrease: m = %d, want 6", c.M())
	}
}

func TestBisectionConverges(t *testing.T) {
	r := rng.New(1)
	g := graph.RandomWithAvgDegree(r, 2000, 16)
	mu := control.TargetM(g, r.Split(), 0.20, 400, 1)
	c := newBisection(0.20, 2)
	tr := control.RunLoopStatic(g, r, c, 400)
	mean, _ := tr.SteadyStateStats(60)
	if math.Abs(mean-float64(mu)) > 0.35*float64(mu) {
		t.Fatalf("bisection steady state %v far from μ=%d", mean, mu)
	}
}

// Safety property: neither baseline ever proposes m outside the clamps,
// no matter what (possibly adversarial) ratio sequence it observes.
func TestBaselinesRespectClampsUnderArbitraryInput(t *testing.T) {
	mks := []func() control.Controller{
		func() control.Controller { return newBisection(0.25, 2) },
		func() control.Controller { return newAIMD(0.25, 2) },
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
