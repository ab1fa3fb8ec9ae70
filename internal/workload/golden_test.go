package workload

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestGoldenDrain pins the per-round (M, R, Committed) series of a round
// drive at Parallel: 1, where it is a pure function of the seed.
func TestGoldenDrain(t *testing.T) {
	for _, name := range []string{"cc", "stable"} {
		t.Run(name, func(t *testing.T) {
			run, err := New(name, Params{Size: 400, Seed: 1, Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer run.Stepper.Close()
			c, err := NewController("hybrid", ControllerParams{Rho: 0.25})
			if err != nil {
				t.Fatal(err)
			}
			res := Drain(context.Background(), run.Stepper, c, 0)
			var got strings.Builder
			for i := range res.M {
				fmt.Fprintf(&got, "%d %d %.6f %d\n", i, res.M[i], res.R[i], res.Committed[i])
			}
			fmt.Fprintf(&got, "rounds=%d useful=%d wasted=%d proc-rounds=%d\n",
				res.Rounds, res.UsefulWork, res.WastedWork, res.ProcRounds)
			want, err := os.ReadFile("testdata/drain_" + name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("trajectory differs from testdata/drain_%s.golden; got:\n%s", name, got.String())
			}
		})
	}
}
