package control

import (
	"math"
	"testing"
)

func TestModelBasedLearnsSlopeFromCleanSignal(t *testing.T) {
	// Synthetic plant: r = a·(m−1) with a = 0.004 (d=16, n≈2000).
	const a = 0.004
	c := NewModelBased(0.20, 10)
	for w := 0; w < 20; w++ {
		for i := 0; i < c.T; i++ {
			c.Observe(a * float64(c.M()-1))
		}
	}
	if got := c.Slope(); math.Abs(got-a) > 0.1*a {
		t.Fatalf("slope estimate %v, want %v", got, a)
	}
	// Target m* = ρ/a + 1 = 51.
	if c.M() < 45 || c.M() > 57 {
		t.Fatalf("m = %d, want ≈51", c.M())
	}
	// Degree estimate via Prop. 2: d = 2(n−1)·â.
	if d := 2 * float64(2000-1) * c.Slope(); math.Abs(d-16) > 2.5 {
		t.Fatalf("degree estimate %v, want ≈16", d)
	}
}

func TestModelBasedProbesUpWithoutConflicts(t *testing.T) {
	c := NewModelBased(0.25, 2)
	for w := 0; w < 6; w++ {
		for i := 0; i < c.T; i++ {
			c.Observe(0)
		}
	}
	if c.M() < 64 {
		t.Fatalf("conflict-free plant: m = %d, want geometric growth", c.M())
	}
}

func TestModelBasedClamps(t *testing.T) {
	c := NewModelBased(0.25, 2)
	for w := 0; w < 30; w++ {
		for i := 0; i < c.T; i++ {
			c.Observe(0)
		}
	}
	if c.M() != 1024 {
		t.Fatalf("m = %d, want MMax", c.M())
	}
	// Catastrophic conflicts pull back to a small target, never below
	// the floor.
	for w := 0; w < 30; w++ {
		for i := 0; i < c.T; i++ {
			c.Observe(0.99)
		}
	}
	if c.M() < 2 {
		t.Fatalf("m = %d below floor", c.M())
	}
}

func TestModelBasedDetectsPhaseChange(t *testing.T) {
	c := NewModelBased(0.20, 10)
	// Phase 1: slope 0.01.
	for w := 0; w < 15; w++ {
		for i := 0; i < c.T; i++ {
			c.Observe(0.01 * float64(c.M()-1))
		}
	}
	if c.Resets != 0 {
		t.Fatalf("spurious resets on stationary plant: %d", c.Resets)
	}
	// Phase 2: slope jumps 10×.
	for w := 0; w < 10; w++ {
		for i := 0; i < c.T; i++ {
			c.Observe(0.1 * float64(c.M()-1))
		}
	}
	if c.Resets == 0 {
		t.Fatal("phase change not detected")
	}
	// And the controller re-learns the new target m* = 0.2/0.1 + 1 = 3.
	if c.M() > 8 {
		t.Fatalf("m = %d after 10× slope increase, want ≈3", c.M())
	}
}
