package workload

import (
	"context"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/speculation"
)

// TestDrainAsyncCC: the synthetic cc workload drains barrier-free and
// its oracle verifies, with the async trajectory consistent.
func TestDrainAsyncCC(t *testing.T) {
	run, err := New("cc", Params{Size: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stepper.Close()
	c, err := NewController("hybrid", ControllerParams{Rho: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DrainAsync(context.Background(), run.Stepper, c, speculation.AsyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Stepper.Pending() != 0 {
		t.Fatalf("%d tasks pending after async drain", run.Stepper.Pending())
	}
	if res.UsefulWork != 2000 {
		t.Fatalf("useful work %d, want 2000", res.UsefulWork)
	}
	if res.Rounds != len(res.M) || len(res.M) != len(res.R) {
		t.Fatalf("trajectory shape: rounds=%d |M|=%d |R|=%d", res.Rounds, len(res.M), len(res.R))
	}
	detail, err := run.Verify()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !strings.Contains(detail, "graph drained") {
		t.Fatalf("verify detail: %q", detail)
	}
}

// TestDrainAsyncUnsupported: ordered workloads cannot run barrier-free.
func TestDrainAsyncUnsupported(t *testing.T) {
	if Supports("des", CapAsync) {
		t.Fatal("des must not advertise async support")
	}
	run, err := New("des", Params{Size: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stepper.Close()
	c, _ := NewController("hybrid", ControllerParams{Rho: 0.3})
	if _, err := DrainAsync(context.Background(), run.Stepper, c, speculation.AsyncOptions{}); err == nil {
		t.Fatal("DrainAsync on an ordered stepper did not error")
	}
}

// steadyMeanM returns the commit-weighted region mean of m: the mean
// over the trajectory entries that fall in the middle half of the
// run's commits ([25%, 75%] by cumulative commit fraction), where both
// drives are in steady state (start-up transient and end-game drain
// excluded).
func steadyMeanM(ms, commits []int) float64 {
	total := 0
	for _, c := range commits {
		total += c
	}
	if total == 0 {
		return 0
	}
	lo, hi := total/4, 3*total/4
	cum, n, sum := 0, 0, 0.0
	for i, c := range commits {
		cum += c
		if cum >= lo && cum <= hi {
			sum += float64(ms[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestAsyncControllerEquivalence is the acceptance check for the
// sliding-window estimator: on the synthetic cc workload, the hybrid
// controller fed windowed pseudo-rounds must settle to the same
// steady-state concurrency as the same controller fed real rounds.
func TestAsyncControllerEquivalence(t *testing.T) {
	const (
		size = 4000
		seed = 11
		rho  = 0.25
	)
	build := func() *Run {
		run, err := New("cc", Params{Size: size, Seed: seed, Parallel: 4})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	ctrl := func() control.Controller {
		c, err := NewController("hybrid", ControllerParams{Rho: rho})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	roundRun := build()
	defer roundRun.Stepper.Close()
	roundRes := Drain(context.Background(), roundRun.Stepper, ctrl(), 100000)
	if roundRun.Stepper.Pending() != 0 {
		t.Fatalf("round drive left %d pending", roundRun.Stepper.Pending())
	}

	asyncRun := build()
	defer asyncRun.Stepper.Close()
	asyncRes, err := DrainAsync(context.Background(), asyncRun.Stepper, ctrl(), speculation.AsyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if asyncRun.Stepper.Pending() != 0 {
		t.Fatalf("async drive left %d pending", asyncRun.Stepper.Pending())
	}

	roundM := steadyMeanM(roundRes.M, roundRes.Committed)
	asyncM := steadyMeanM(asyncRes.M, asyncRes.Committed)
	if roundM == 0 || asyncM == 0 {
		t.Fatalf("degenerate steady-state means: round %.1f async %.1f", roundM, asyncM)
	}
	ratio := asyncM / roundM
	t.Logf("steady-state mean m: round %.1f, async %.1f (ratio %.2f); conflict ratio: round %.3f async %.3f",
		roundM, asyncM, ratio, roundRes.MeanConflictRatio(), asyncRes.MeanConflictRatio())
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("async steady-state m %.1f diverges from round-mode %.1f (ratio %.2f, tolerance [0.5, 2.0])",
			asyncM, roundM, ratio)
	}
}
