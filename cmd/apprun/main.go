// Command apprun executes the four amorphous data-parallel applications
// on the speculative runtime under a chosen processor-allocation
// controller, reporting work, conflicts, and allocation trajectories —
// the end-to-end integration the paper's §5 anticipates.
//
// Usage:
//
//	apprun -app mesh    -ctrl hybrid -rho 0.25
//	apprun -app boruvka -ctrl fixed -m 64
//	apprun -app sp      -ctrl recurrence-a
//	apprun -app cluster -ctrl recurrence-b
//	apprun -app des     -ctrl hybrid       # ordered (§5 future work)
//	apprun -app all     -ctrl hybrid
//
// -parallel sets how many workers execute tasks, in every mode (default
// NumCPU); -parallel 0 sizes it to GOMAXPROCS.
//
// -async drops the round barrier: the -parallel workers claim chunks of
// tasks against a resizable in-flight limit and the controller observes
// a sliding commit window, as many outcomes as that limit, instead of
// rounds (async-capable workloads only).
//
// -colored is declare-or-round (colored-capable workloads only): when
// the tasks declare their footprints (cc, stable), a proper coloring of
// the declared conflict graph partitions them into conflict-free
// classes, and whole classes run lock-free until a staleness trip
// falls back to rounds; tasks that do not declare (mesh, cluster) run
// in rounds, as without the flag. The report gains a phase line:
// speculative rounds (labelled learn-rounds, as in earlier releases)
// vs colored rounds, colorings, fallbacks, and the colored-phase
// conflict ratio.
//
// Workloads and controllers are instantiated through the shared
// internal/workload registry — the same constructors cmd/controlsim and
// the specd service use.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/control"
	"repro/internal/speculation"
	"repro/internal/workload"
)

func main() {
	app := flag.String("app", "all", "mesh | boruvka | sp | cluster | des | maxflow | stable | all")
	ctrlName := flag.String("ctrl", "hybrid", strings.Join(workload.ControllerNames(), " | "))
	rho := flag.Float64("rho", 0.25, "target conflict ratio")
	fixedM := flag.Int("m", 32, "processor count for -ctrl fixed")
	size := flag.Int("size", 1000, "workload size parameter")
	seed := flag.Uint64("seed", 1, "PRNG seed")
	par := flag.Int("parallel", runtime.NumCPU(),
		"executor workers, round pool and async alike (0 = GOMAXPROCS)")
	maxRounds := flag.Int("max-rounds", 1<<30, "abandon a run after this many rounds")
	retries := flag.Int("task-retries", 0,
		"retry budget for failed tasks (0 = default, negative = no retries)")
	async := flag.Bool("async", false,
		"run barrier-free with sliding-window control (workloads with async support only)")
	colored := flag.Bool("colored", false,
		"run colored, declare-or-round (workloads with colored support only)")
	flag.Parse()

	if *async && *colored {
		fmt.Fprintln(os.Stderr, "-async and -colored are mutually exclusive")
		os.Exit(2)
	}

	newCtrl := func() control.Controller {
		c, err := workload.NewController(*ctrlName,
			workload.ControllerParams{Rho: *rho, FixedM: *fixedM})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return c
	}

	mode, flagName, need := speculation.ModeRound, "", workload.Capability(0)
	switch {
	case *async:
		mode, flagName, need = speculation.ModeAsync, "-async", workload.CapAsync
	case *colored:
		mode, flagName, need = speculation.ModeColored, "-colored", workload.CapColored
	}

	apps := []string{*app}
	if *app == "all" {
		apps = []string{"mesh", "boruvka", "sp", "cluster", "des", "maxflow"}
	}
	for _, a := range apps {
		if workload.Has(a) && !workload.Supports(a, need) {
			fmt.Fprintf(os.Stderr, "app %q does not support %s (only: %v)\n",
				a, flagName, workload.CapableNames(need))
			os.Exit(2)
		}
		c := newCtrl()
		run, err := workload.New(a, workload.Params{
			Size: *size, Seed: *seed, Parallel: *par, TaskRetries: *retries})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			flag.Usage()
			os.Exit(2)
		}
		res, dres, err := speculation.Collect(context.Background(), run.Stepper, c,
			speculation.Options{Mode: mode, MaxSamples: *maxRounds})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if pending := run.Stepper.Pending(); pending > 0 {
			// The cap cut the drain short; the oracle would report a
			// partial result as a failure, so say what happened instead.
			run.ReportIncomplete(os.Stdout, res, pending)
		} else {
			run.Report(os.Stdout, res)
		}
		if *colored {
			fmt.Printf("         colored: learn-rounds=%d colored-rounds=%d colorings=%d fallbacks=%d colors=%d colored-commits=%d colored-r=%.3f\n",
				dres.SpecRounds, dres.ColoredRounds, dres.Colorings, dres.Fallbacks,
				dres.Colors, dres.ColoredCommits, dres.ColoredConflictRatio())
		}
		run.Stepper.Close()
	}
}
