package workload

import (
	"context"
	"testing"
)

// BenchmarkSpeculativeDrain prices one drain of the three heaviest
// apps_mix operators at apps_mix's sizes: the speculative executor on
// one participant under the hybrid controller at ρ = 0.25, seed 1, so
// each trajectory (and its allocation count) is a pure function of the
// seed. The workload build and the oracle run outside the timer.
func BenchmarkSpeculativeDrain(b *testing.B) {
	for _, w := range []struct {
		name string
		size int
	}{{"mesh", 6000}, {"boruvka", 6000}, {"sp", 1000}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				run, err := New(w.name, Params{Size: w.size, Seed: 1, Parallel: 1})
				if err != nil {
					b.Fatal(err)
				}
				ctrl, err := NewController("hybrid", ControllerParams{Rho: 0.25})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				Drain(context.Background(), run.Stepper, ctrl, 0)
				b.StopTimer()
				if _, err := run.Verify(); err != nil {
					b.Fatal(err)
				}
				run.Stepper.Close()
			}
		})
	}
}
