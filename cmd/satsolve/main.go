// Command satsolve runs the complete survey-propagation pipeline on a
// random 3-SAT instance: SP message passing, bias-guided decimation with
// unit propagation, and a WalkSAT finisher for the paramagnetic
// residual — the full workload behind the paper's survey-propagation
// citation, usable as a standalone stochastic SAT solver.
//
// Usage:
//
//	satsolve -n 2000 -alpha 3.8 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/apps/sp"
	"repro/internal/rng"
)

func main() {
	n := flag.Int("n", 1000, "number of variables")
	alpha := flag.Float64("alpha", 3.5, "clause-to-variable ratio (SAT phase < ~4.27)")
	seed := flag.Uint64("seed", 1, "PRNG seed")
	eps := flag.Float64("eps", 1e-3, "SP convergence threshold")
	flag.Parse()
	if *n < 3 || *alpha < 0 {
		fmt.Fprintf(os.Stderr, "-n %d -alpha %g: need n ≥ 3 (a 3-SAT clause has three variables) and alpha ≥ 0\n", *n, *alpha)
		flag.Usage()
		os.Exit(2)
	}

	r := rng.New(*seed)
	mClauses := int(float64(*n) * *alpha)
	f := sp.NewRandom3SAT(r, *n, mClauses)
	fmt.Printf("instance: %d variables, %d clauses (α = %.2f)\n", *n, mClauses, *alpha)

	start := time.Now()
	assignment, err := sp.Solve(f, r, sp.SolveOptions{Eps: *eps})
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "UNSOLVED after %v: %v\n", elapsed, err)
		os.Exit(1)
	}
	if err := f.Satisfied(assignment); err != nil {
		fmt.Fprintf(os.Stderr, "INTERNAL ERROR: produced assignment invalid: %v\n", err)
		os.Exit(1)
	}
	trues := 0
	for _, v := range assignment {
		if v == 1 {
			trues++
		}
	}
	fmt.Printf("SATISFIABLE in %v (%d/%d variables true)\n", elapsed, trues, *n)
}
