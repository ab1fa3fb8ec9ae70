package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// acc returns an Accumulator fed xs in order.
func acc(xs []float64) *Accumulator {
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	return &a
}

func TestAccumulatorBasic(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if !almostEq(a.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 32/7.
	if !almostEq(a.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", a.Variance(), 32.0/7.0)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Error("empty accumulator should report zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Mean() != 3.5 || a.Variance() != 0 {
		t.Errorf("single observation: mean=%v var=%v", a.Mean(), a.Variance())
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !almostEq(acc(xs).Variance(), 5.0/3.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", acc(xs).Variance(), 5.0/3.0)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
}

func TestRelErr(t *testing.T) {
	if !almostEq(RelErr(11, 10), 0.1, 1e-12) {
		t.Errorf("RelErr(11,10) = %v", RelErr(11, 10))
	}
	if RelErr(1, 0) <= 0 {
		t.Error("RelErr with zero reference should be finite and positive")
	}
	if math.IsInf(RelErr(1, 0), 0) || math.IsNaN(RelErr(1, 0)) {
		t.Error("RelErr with zero reference must be finite")
	}
}

// Property: variance is translation invariant and scales quadratically.
func TestVarianceProperties(t *testing.T) {
	f := func(raw []float64, shiftRaw float64) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				v = 1
			}
			xs = append(xs, v)
		}
		shift := math.Mod(shiftRaw, 1000)
		if math.IsNaN(shift) {
			shift = 0
		}
		base := acc(xs).Variance()
		shifted := make([]float64, len(xs))
		scaled := make([]float64, len(xs))
		for i, v := range xs {
			shifted[i] = v + shift
			scaled[i] = 2 * v
		}
		tol := 1e-6 * (1 + base)
		return almostEq(acc(shifted).Variance(), base, tol) &&
			almostEq(acc(scaled).Variance(), 4*base, 4*tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorConveniences(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{4, 4, 4, 8} {
		a.Add(x)
	}
	if a.Mean() != 5 {
		t.Fatalf("mean=%v", a.Mean())
	}
	if got, want := a.StdDev()*a.StdDev(), a.Variance(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("StdDev² %v vs Variance %v", got, want)
	}
}

func TestStdDevSlice(t *testing.T) {
	if got := acc([]float64{2, 4, 4, 4, 5, 5, 7, 9}).StdDev(); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("StdDev = %v", got)
	}
}
