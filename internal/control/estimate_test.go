package control

import (
	"math"
	"testing"

	"repro/internal/analytic"
)

func TestSmartStartInitialM(t *testing.T) {
	h := NewHybridSmartStart(0.25, 2000, 16)
	if h.M() != 58 { // 2000/(2·17)
		t.Fatalf("smart start m0 = %d, want 58", h.M())
	}
	// Enormous n clamps to MMax.
	h = NewHybridSmartStart(0.25, 10_000_000, 1)
	if h.M() != 1024 {
		t.Fatalf("clamped m0 = %d", h.M())
	}
}

func TestMaxAlphaFor(t *testing.T) {
	// Cor. 3 at α=1/2 gives ≈0.213 for large d, so maxAlphaFor(0.213)
	// should return ≈ 0.5.
	a := maxAlphaFor(0.213, 1e9)
	if math.Abs(a-0.5) > 0.01 {
		t.Fatalf("maxAlphaFor(0.213) = %v, want ≈0.5", a)
	}
	// Monotone in rho.
	if maxAlphaFor(0.10, 16) >= maxAlphaFor(0.30, 16) {
		t.Fatal("maxAlphaFor not monotone in rho")
	}
	// The returned α indeed satisfies the bound.
	for _, rho := range []float64{0.1, 0.2, 0.3} {
		a := maxAlphaFor(rho, 16)
		if b := analytic.Cor3ConflictBound(a, 16); b > rho+1e-9 {
			t.Errorf("bound(%v) = %v exceeds rho %v", a, b, rho)
		}
	}
	if maxAlphaFor(0, 16) != 0 {
		t.Fatal("rho=0 should give alpha 0")
	}
}
