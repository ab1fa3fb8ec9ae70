package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasic(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d, want 8", a.N())
	}
	if !almostEq(a.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 32/7.
	if !almostEq(a.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", a.Variance(), 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
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

func TestAccumulatorMergeMatchesSequential(t *testing.T) {
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		// Keep magnitudes small enough that squared deltas cannot
		// overflow; the algebraic identity is what is under test.
		return math.Mod(v, 1e6)
	}
	f := func(xs, ys []float64) bool {
		var seq, a, b Accumulator
		for _, x := range xs {
			x = clamp(x)
			seq.Add(x)
			a.Add(x)
		}
		for _, y := range ys {
			y = clamp(y)
			seq.Add(y)
			b.Add(y)
		}
		a.Merge(&b)
		return a.N() == seq.N() &&
			almostEq(a.Mean(), seq.Mean(), 1e-9*(1+math.Abs(seq.Mean()))) &&
			almostEq(a.Variance(), seq.Variance(), 1e-6*(1+seq.Variance()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorMergeEmptySides(t *testing.T) {
	var a, b Accumulator
	b.Add(1)
	b.Add(3)
	a.Merge(&b)
	if a.N() != 2 || a.Mean() != 2 {
		t.Errorf("merge into empty: n=%d mean=%v", a.N(), a.Mean())
	}
	var c Accumulator
	a.Merge(&c) // merging empty is a no-op
	if a.N() != 2 {
		t.Error("merging empty accumulator changed state")
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !almostEq(Variance(xs), 5.0/3.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", Variance(xs), 5.0/3.0)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i*i))
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.TailMean(2); !almostEq(got, (64+81)/2.0, 1e-12) {
		t.Errorf("TailMean(2) = %v", got)
	}
	if got := s.TailMean(100); !almostEq(got, Mean(s.Y), 1e-12) {
		t.Errorf("TailMean over length should equal the mean of Y: %v vs %v", got, Mean(s.Y))
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
		base := Variance(xs)
		shifted := make([]float64, len(xs))
		scaled := make([]float64, len(xs))
		for i, v := range xs {
			shifted[i] = v + shift
			scaled[i] = 2 * v
		}
		tol := 1e-6 * (1 + base)
		return almostEq(Variance(shifted), base, tol) &&
			almostEq(Variance(scaled), 4*base, 4*tol)
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
	if a.N() != 4 || a.Mean() != 5 {
		t.Fatalf("n=%d mean=%v", a.N(), a.Mean())
	}
	if got, want := a.StdDev()*a.StdDev(), a.Variance(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("StdDev² %v vs Variance %v", got, want)
	}
	if a.CI95() <= 0 || a.CI95() != 1.96*a.StdErr() {
		t.Fatalf("CI95 %v StdErr %v", a.CI95(), a.StdErr())
	}
	if s := a.String(); !strings.Contains(s, "n=4") {
		t.Fatalf("String: %q", s)
	}
}

func TestStdDevSlice(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestSeriesYMeanEmpty(t *testing.T) {
	var s Series
	if Mean(s.Y) != 0 || s.TailMean(5) != 0 {
		t.Fatal("empty series should report zeros")
	}
}
