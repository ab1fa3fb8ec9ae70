package workload

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestGoldenDrain pins the per-round (M, R, Committed) series of a round
// drive at Parallel: 1 and 2 to one file: a round's outcome is a function
// of its pick order, so the series is a pure function of the seed at any
// participant count.
func TestGoldenDrain(t *testing.T) {
	for _, name := range []string{"cc", "stable"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile("testdata/drain_" + name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2} {
				run, err := New(name, Params{Size: 400, Seed: 1, Parallel: par})
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewController("hybrid", ControllerParams{Rho: 0.25})
				if err != nil {
					t.Fatal(err)
				}
				res := Drain(context.Background(), run.Stepper, c, 0)
				run.Stepper.Close()
				var got strings.Builder
				for i := range res.M {
					fmt.Fprintf(&got, "%d %d %.6f %d\n", i, res.M[i], res.R[i], res.Committed[i])
				}
				fmt.Fprintf(&got, "rounds=%d useful=%d wasted=%d proc-rounds=%d\n",
					res.Rounds, res.UsefulWork, res.WastedWork, res.ProcRounds)
				if got.String() != string(want) {
					t.Errorf("Parallel %d: trajectory differs from testdata/drain_%s.golden; got:\n%s", par, name, got.String())
				}
			}
		})
	}
}
