package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		t.Fatal("zero seed produced all-zero state")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded generator repeated values: %d distinct of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child and parent streams should not collide.
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			t.Fatalf("parent and child emitted same value at draw %d", i)
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	c1 := New(9).Split()
	c2 := New(9).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		sorted := append([]int(nil), p...)
		sort.Ints(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("Perm(%d) is not a permutation: %v", n, p)
			}
		}
	}
}

func TestPermPrefixDistinct(t *testing.T) {
	r := New(17)
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%500) + 1
		m := int(mRaw) % (n + 1)
		rr := New(seed)
		p := rr.PermPrefix(n, m)
		if len(p) != m {
			return false
		}
		seen := map[int]bool{}
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: stdRandFor(r)}); err != nil {
		t.Fatal(err)
	}
}

func TestPermPrefixFullIsPermutation(t *testing.T) {
	r := New(19)
	const n = 50
	p := r.PermPrefix(n, n)
	sorted := append([]int(nil), p...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("PermPrefix(n, n) not a permutation: %v", p)
		}
	}
}

// TestPermPrefixUniformFirst verifies the first element of the prefix is
// uniform over [0, n) — the property the scheduler model depends on.
func TestPermPrefixUniformFirst(t *testing.T) {
	r := New(23)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.PermPrefix(n, 3)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("first-element bucket %d: got %d want ~%.0f", i, c, want)
		}
	}
}

// TestPermPrefixPairUniform checks that unordered pairs from PermPrefix(n,2)
// are uniform — exercises the displaced-map bookkeeping.
func TestPermPrefixPairUniform(t *testing.T) {
	r := New(29)
	const n, draws = 6, 90000
	counts := map[[2]int]int{}
	for i := 0; i < draws; i++ {
		p := r.PermPrefix(n, 2)
		a, b := p[0], p[1]
		if a == b {
			t.Fatal("pair with repeated element")
		}
		if a > b {
			a, b = b, a
		}
		counts[[2]int{a, b}]++
	}
	pairs := n * (n - 1) / 2
	want := float64(draws) / float64(pairs)
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("pair %v: got %d want ~%.0f", k, c, want)
		}
	}
	if len(counts) != pairs {
		t.Errorf("saw %d distinct pairs, want %d", len(counts), pairs)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(41)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkPermPrefix(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.PermPrefix(100000, 64)
	}
}

func TestBoolRoughlyFair(t *testing.T) {
	r := New(43)
	trues := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		if r.Bool() {
			trues++
		}
	}
	if trues < draws*45/100 || trues > draws*55/100 {
		t.Fatalf("Bool: %d/%d true", trues, draws)
	}
}

func TestInt63NonNegative(t *testing.T) {
	r := New(44)
	for i := 0; i < 1000; i++ {
		if r.Int63() < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
}

func TestIntnRejectionPath(t *testing.T) {
	// n just below a power of two maximizes the Lemire rejection rate;
	// exercise it heavily for range correctness.
	r := New(46)
	n := (1 << 62) + 12345
	for i := 0; i < 5000; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestPermPrefixPanics(t *testing.T) {
	r := New(47)
	for _, fn := range []func(){
		func() { r.PermPrefix(3, 4) },
		func() { r.PermPrefix(3, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
