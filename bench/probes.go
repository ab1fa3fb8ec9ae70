package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/apps/boruvka"
	"repro/internal/apps/des"
	"repro/internal/apps/maxflow"
	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/speculation"
	"repro/internal/stats"
	"repro/internal/workload"
)

// probeDefs are the direct probes: each times one layer through calls
// that already exist, on inputs pinned here (the benchmark's own job
// classes), identically in every traced run.
var probeDefs = concat(
	// workload.New + Drain*/DrainAsync/DrainColored, no service around it.
	each("speculation.%s.drain_ms", "ms", "lower", modeClasses...),
	each("speculation.%s.abort_share", "share", "lower", modeClasses...),
	[]metricDef{
		{Name: "speculation.colored.learn_rounds", Unit: "count", Better: "lower"},
		{Name: "speculation.colored.colored_commit_share", Unit: "share", Better: "higher"},
		{Name: "speculation.ordered.des.drain_ms", Unit: "ms", Better: "lower"},
		{Name: "control.observe_ns", Unit: "ns", Better: "lower"},
		{Name: "control.settle_rounds", Unit: "count", Better: "lower"},
	},
	each("control.r_err.%s", "ratio", "lower", modes...),
	// A job through an in-memory Service minus the same job driven directly.
	each("service.runloop_overhead_ms.%s", "ms", "lower", modes...),
	[]metricDef{
		{Name: "service.des.round_us", Unit: "us", Better: "lower"},
		{Name: "service.submit_us.mem.p50", Unit: "us", Better: "lower"},
		{Name: "service.submit_us.wal.p50", Unit: "us", Better: "lower"},
	},
	each("workload.%s.build_ms", "ms", "lower", probeWorkloads...),
	each("workload.%s.verify_ms", "ms", "lower", probeWorkloads...),
	each("journal.append_us.%s.p50", "us", "lower", "always", "interval", "never", "always.fanin2"),
	// The same generated input through serial code that already exists:
	// no locks, undo logs or task table. overhead_x = speculative drain / floor.
	each("floor.%s.serial_ms", "ms", "lower", floorNames...),
	each("overhead_x.%s", "ratio", "lower", floorNames...),
)

var (
	modes          = []string{service.ModeRound, service.ModeAsync, service.ModeColored}
	modeClasses    = []string{"round.stable", "round.cc", "async.stable", "async.cc", "colored.stable", "colored.cc"}
	probeWorkloads = []string{"mesh", "boruvka", "sp", "cluster", "des", "maxflow", "cc", "stable"}
	floorNames     = []string{"cc", "boruvka", "des", "maxflow"}
)

// probeSizes are the sizes the benchmark's own workloads use.
var probeSizes = map[string]int{"mesh": 6000, "boruvka": 6000, "sp": 1000, "cluster": 1500, "des": 3000,
	"maxflow": 400, "cc": 10000, "stable": 2500}

const probeReps = 3 // timed repetitions of each drain; the median is reported

func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return ms(time.Since(t0))
}

// drained is one direct drive of a workload to completion.
type drained struct {
	buildMs, drainMs, verifyMs float64
	res                        *speculation.AdaptiveResult
	colored                    *speculation.ColoredResult
	specR                      []float64 // conflict ratio of each speculative round
}

// drive builds a workload as a specd job would (parallel 2, hybrid
// controller, rho 0.25), drains it in the given mode and verifies it.
func drive(name, mode string, seed uint64) (d drained, err error) {
	p := workload.Params{Size: probeSizes[name], Seed: seed, Parallel: 2}
	if name == "cc" {
		p.Degree = 16
	}
	if name == "maxflow" {
		p.Seed = 1 + seed%5 // the heavy seeds of the pool in workloads.go
	}
	var run *workload.Run
	d.buildMs = timed(func() { run, err = workload.New(name, p) })
	if err != nil {
		return d, err
	}
	defer run.Stepper.Close()
	ctrl, err := workload.NewController("hybrid", workload.ControllerParams{Rho: rho})
	if err != nil {
		return d, err
	}
	ctx := context.Background()
	d.drainMs = timed(func() {
		switch mode {
		case service.ModeAsync:
			d.res, err = workload.DrainAsync(ctx, run.Stepper, ctrl, speculation.AsyncOptions{})
		case service.ModeColored:
			d.res, d.colored, err = workload.DrainColored(ctx, run.Stepper, ctrl, speculation.ColoredOptions{
				OnRound: func(r speculation.ColoredRound) {
					if !r.Colored {
						d.specR = append(d.specR, r.R)
					}
				}})
		default:
			d.res = workload.Drain(ctx, run.Stepper, ctrl, 0)
		}
	})
	if err != nil {
		return d, err
	}
	if mode != service.ModeColored {
		d.specR = d.res.R
	}
	d.verifyMs = timed(func() { _, err = run.Verify() })
	if err != nil {
		return d, fmt.Errorf("direct %s/%s failed its oracle: %w", name, mode, err)
	}
	return d, nil
}

// viaService runs the same job through an in-memory Service and returns
// finished_at - started_at in ms and the round count.
func viaService(svc *service.Service, name, mode string, seed uint64) (float64, int, error) {
	spec := synth(name, probeSizes[name], 0, mode)
	spec.Seed = seed
	st, err := svc.Submit(spec)
	if err != nil {
		return 0, 0, err
	}
	for deadline := time.Now().Add(maxDuration); !st.Terminal(); {
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("probe job %s/%s did not finish", name, mode)
		}
		time.Sleep(time.Millisecond)
		st, _ = svc.JobTail(st.ID, 0)
	}
	if st.State != service.StateDone {
		return 0, 0, fmt.Errorf("probe job %s/%s: %s %s", name, mode, st.State, st.Error)
	}
	return ms(st.FinishedAt.Sub(*st.StartedAt)), st.Rounds, nil
}

// probes fills m with every probeDefs metric.
func probes(m map[string]sample, seed uint64, dir string) error {
	one := func(name string, v float64) { m[name] = sample{v: v, n: 1} }
	med := func(name string, xs []float64) { m[name] = sample{v: median(xs), n: len(xs)} }

	mem := service.New(service.Config{Workers: 1, DefaultParallel: 2, QueueCap: queueCap})
	defer mem.Shutdown(context.Background())

	// Executors, controller and service round loop on the exec_heavy classes.
	roundDrain := make(map[string]float64)
	for _, mode := range modes {
		for _, name := range []string{"stable", "cc"} {
			var drainMs, abort, direct, served, rErr, learn, share []float64
			for rep := 0; rep < probeReps; rep++ {
				s := mix(seed, rep)
				// Same job through the service, before the direct drive on odd
				// repetitions and after it on even ones, so that neither side
				// always runs on the caches the other one warmed.
				viaSvc := func() error {
					if name != "stable" {
						return nil
					}
					ran, _, err := viaService(mem, name, mode, s)
					served = append(served, ran)
					return err
				}
				if rep%2 == 1 {
					if err := viaSvc(); err != nil {
						return err
					}
				}
				d, err := drive(name, mode, s)
				if err != nil {
					return err
				}
				if rep%2 == 0 {
					if err := viaSvc(); err != nil {
						return err
					}
				}
				drainMs = append(drainMs, d.drainMs)
				abort = append(abort, ratio(float64(d.res.WastedWork), float64(d.res.ProcRounds)))
				if name == "stable" {
					direct = append(direct, d.buildMs+d.drainMs+d.verifyMs)
					rErr = append(rErr, math.Abs(stats.Mean(d.specR[len(d.specR)/2:])-rho))
					if d.colored != nil {
						learn = append(learn, float64(d.colored.SpecRounds))
						share = append(share, ratio(float64(d.colored.ColoredCommits), float64(d.colored.Committed)))
					}
					if mode == service.ModeRound && rep == 0 {
						one("control.settle_rounds", float64(settled(d.specR)))
					}
				}
			}
			med("speculation."+mode+"."+name+".drain_ms", drainMs)
			med("speculation."+mode+"."+name+".abort_share", abort)
			if name == "stable" {
				one("service.runloop_overhead_ms."+mode, median(served)-median(direct))
				med("control.r_err."+mode, rErr)
			}
			if len(learn) > 0 {
				med("speculation.colored.learn_rounds", learn)
				med("speculation.colored.colored_commit_share", share)
			}
			if mode == service.ModeRound {
				roundDrain[name] = median(drainMs)
			}
		}
	}

	// Build, drain and oracle of every workload the benchmark submits.
	for _, name := range probeWorkloads {
		d, err := drive(name, service.ModeRound, mix(seed, 100))
		if err != nil {
			return err
		}
		one("workload."+name+".build_ms", d.buildMs)
		one("workload."+name+".verify_ms", d.verifyMs)
		if _, ok := roundDrain[name]; !ok {
			roundDrain[name] = d.drainMs
		}
		if name == "des" {
			one("speculation.ordered.des.drain_ms", d.drainMs)
			ran, rounds, err := viaService(mem, name, "", mix(seed, 100))
			if err != nil {
				return err
			}
			one("service.des.round_us", (ran-d.buildMs-d.drainMs-d.verifyMs)*1000/float64(rounds))
		}
	}

	// Serial floors on the same generated inputs (the constructions below
	// repeat internal/workload's, which keeps them private).
	fs := mix(seed, 100)
	floors := map[string]func() func(){
		"cc": func() func() {
			g := graph.RandomWithAvgDegree(rng.New(fs), probeSizes["cc"], 16)
			return func() {
				for _, v := range g.Nodes() {
					g.RemoveNode(v)
				}
			}
		},
		"boruvka": func() func() {
			g := boruvka.NewRandomConnected(rng.New(fs), probeSizes["boruvka"], probeSizes["boruvka"]*3)
			return func() { boruvka.Sequential(g) }
		},
		"des": func() func() {
			net := des.NewTandem(fs, 0.2, 0.15, 0.25, 0.2, 0.1, 0.3)
			return func() { des.RunSequential(net, probeSizes["des"]/2, 0.05) }
		},
		"maxflow": func() func() {
			n := probeSizes["maxflow"]
			net := maxflow.RandomNetwork(rng.New(1+fs%5), n/2, n*2, 50)
			return func() { maxflow.PushRelabel(net, 0, net.N-1) }
		},
	}
	for _, name := range floorNames {
		floor := timed(floors[name]())
		one("floor."+name+".serial_ms", floor)
		one("overhead_x."+name, ratio(roundDrain[name], floor))
	}

	// Controller alone.
	ctrl := control.NewHybrid(control.DefaultHybridConfig(rho))
	r := rng.New(seed)
	const observes = 200_000
	t0 := time.Now()
	for i := 0; i < observes; i++ {
		ctrl.Observe(rho + 0.2*(r.Float64()-0.5))
	}
	one("control.observe_ns", float64(time.Since(t0).Nanoseconds())/observes)

	// Admission with and without a WAL under it.
	wal, err := service.Open(service.Config{Workers: 1, DefaultParallel: 2, QueueCap: queueCap, StateDir: dir + "-wal"})
	if err != nil {
		return err
	}
	defer wal.Shutdown(context.Background())
	for label, svc := range map[string]*service.Service{"mem": mem, "wal": wal} {
		var us []float64
		for i := 0; i < 200; i++ {
			spec := synth("cc", 64, 16, "") // cc with size 1 and degree 16 panics the server (RandomGNM: m exceeds max)
			t0 := time.Now()
			if _, err := svc.Submit(spec); err != nil {
				return err
			}
			us = append(us, float64(time.Since(t0).Microseconds()))
		}
		med("service.submit_us."+label+".p50", us)
	}

	// Journal alone, per fsync policy, and two appenders sharing fsyncs.
	rec := make([]byte, 256)
	appendUs := func(j *journal.Journal, n int) (us []float64, err error) {
		for i := 0; i < n && err == nil; i++ {
			t0 := time.Now()
			err = j.Append(rec)
			us = append(us, float64(time.Since(t0).Nanoseconds())/1000)
		}
		return us, err
	}
	for _, policy := range []journal.Policy{journal.SyncAlways, journal.SyncInterval, journal.SyncNever} {
		j, err := journal.Open(dir+"-journal-"+string(policy), journal.Options{Fsync: policy})
		if err != nil {
			return err
		}
		us, err := appendUs(j, 300)
		if policy == journal.SyncAlways && err == nil {
			med("journal.append_us.always.p50", us)
			var both [2][]float64
			var errs [2]error
			var wg sync.WaitGroup
			for i := range both {
				wg.Add(1)
				go func() { defer wg.Done(); both[i], errs[i] = appendUs(j, 300) }()
			}
			wg.Wait()
			us, err = append(both[0], both[1]...), errs[0]
			if err == nil {
				err = errs[1]
			}
			med("journal.append_us.always.fanin2.p50", us)
		} else {
			med("journal.append_us."+string(policy)+".p50", us)
		}
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("journal probe (%s): %w", policy, err)
		}
	}
	return nil
}

// reopen times the read side of the layer the traced pass just wrote:
// journal.Replay alone, then a full service.Open on the same state dir.
func reopen(m map[string]sample, stateDir string) {
	m["journal.replay_ms"] = sample{timed(func() { _, _ = journal.Replay(stateDir, journal.Options{}) }), 1}
	var svc *service.Service
	m["service.open_ms"] = sample{timed(func() { svc, _ = service.Open(service.Config{StateDir: stateDir}) }), 1}
	if svc != nil {
		_ = svc.Shutdown(context.Background()) // nothing is queued: every job of the pass finished
	}
}

// settled is the first round from which a 16-round mean of the conflict
// ratio stays within 0.05 of rho — the controller has found its m.
func settled(r []float64) int {
	const win = 16
	for i := 0; i+win <= len(r); i++ {
		if math.Abs(stats.Mean(r[i:i+win])-rho) <= 0.05 {
			return i
		}
	}
	return len(r)
}
