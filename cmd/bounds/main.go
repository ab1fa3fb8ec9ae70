// Command bounds prints the paper's §3 closed-form theory as tables:
// the exact worst-case conflict-ratio bound of Thm. 3, its Cor. 2
// approximation, the Cor. 3 α-parametrized envelope, the Turán
// parallelism guarantee, and the Example 1 pathology.
//
// Usage:
//
//	bounds -n 2040 -d 16            # Thm. 3 / Cor. 2 table over m
//	bounds -alpha                   # Cor. 3 table over α
//	bounds -example1                # Example 1 table over n
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analytic"
	"repro/internal/trace"
)

func main() {
	n := flag.Int("n", 2040, "CC graph size")
	d := flag.Int("d", 16, "average degree")
	points := flag.Int("points", 24, "rows in the m-sweep table")
	alphaTable := flag.Bool("alpha", false, "print the Cor. 3 α table instead")
	example1 := flag.Bool("example1", false, "print the Example 1 table instead")
	flag.Parse()
	if !*alphaTable && !*example1 && (*n < 1 || *d < 0 || *d > *n-1) {
		fmt.Fprintf(os.Stderr, "-n %d -d %d: need n ≥ 1 and 0 ≤ d ≤ n−1 (a simple graph on n nodes has degree at most n−1)\n", *n, *d)
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case *alphaTable:
		printAlpha()
	case *example1:
		printExample1()
	default:
		printBounds(*n, *d, *points)
	}
}

func printBounds(n, d, points int) {
	fmt.Printf("Worst-case conflict ratio bounds, n=%d d=%d (Thm. 3 / Cor. 2)\n", n, d)
	fmt.Printf("Turán guaranteed parallelism n/(d+1) = %.1f\n", analytic.TuranBound(n, float64(d)))
	fmt.Printf("Initial slope Δr̄(1) = d/(2(n−1)) = %.6f (Prop. 2)\n", analytic.InitialSlope(n, float64(d)))
	fmt.Printf("Safe initial m = n/(2(d+1)) = %d (Cor. 3, ratio ≤ 21.3%%)\n\n", analytic.SuggestedInitialM(n, float64(d)))

	tbl := trace.NewTable("worst-case-bounds", "m", "thm3_exact", "cor2_approx")
	for i := 1; i <= points; i++ {
		m := i * n / points
		if m < 1 {
			m = 1
		}
		tbl.AddRow(float64(m),
			analytic.WorstCaseConflictRatio(n, d, m),
			analytic.Cor2ConflictBound(float64(n), float64(d), float64(m)))
	}
	if err := tbl.WriteTSV(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func printAlpha() {
	fmt.Println("Cor. 3: conflict-ratio bound at m = α·n/(d+1)")
	tbl := trace.NewTable("cor3-alpha", "alpha", "bound_d16", "bound_d64", "envelope")
	for _, a := range []float64{0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4} {
		tbl.AddRow(a,
			analytic.Cor3ConflictBound(a, 16),
			analytic.Cor3ConflictBound(a, 64),
			analytic.Cor3Limit(a))
	}
	if err := tbl.WriteTSV(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func printExample1() {
	fmt.Println("Example 1: G = K_{n²} ∪ D_n, m = n+1 random actives")
	fmt.Println("Every maximal independent set has n+1 nodes, yet:")
	tbl := trace.NewTable("example1", "n", "clique_size", "m", "expected_committed")
	for _, n := range []int{4, 8, 16, 32, 64} {
		tbl.AddRow(float64(n), float64(n*n), float64(n+1),
			analytic.Example1Expected(n*n, n, n+1))
	}
	if err := tbl.WriteTSV(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
