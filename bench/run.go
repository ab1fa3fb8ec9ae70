package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service/client"
)

// metricDef names one reported metric. The tables of these are the single
// source for BENCHMARK.json (`-manifest` prints it) and for the output.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of specd sees. Every workload reports every
// one; what each means per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"lat_ms.p50", "ms", "lower", 0.25},
	{"submit_ms.p50", "ms", "lower", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
}

// sample is one reported value and how many observations it summarises.
type sample struct {
	v float64
	n int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a run launches its deployment; setup_s is
// their median, and the last one serves the measurement.
const setups = 9

const warmJobs = 16 // service workloads: unmeasured jobs that fill caches and pools first

// pass is one execution of a workload's phases against one deployment.
type pass struct {
	w      *workloadDef
	jobs   []*jobRec
	pollMs []float64

	satStart time.Time
	satDur   time.Duration

	cpuS          float64            // server CPU over the phase cpu_ms_per_job covers
	before, after map[string]float64 // /metrics counters, summed over servers
	wallS         float64            // wall time of the pass
	slowness      float64            // machine speed index over the measured phases, see calib.go
}

// runPass warms the deployment up, then runs the workload's phases.
func runPass(st *stack, w *workloadDef, seed uint64, seconds float64, tr *tracer) (*pass, error) {
	p := &pass{w: w}
	g := newLoadgen(w, seed, st.url, tr)
	var reaped sync.WaitGroup
	reaped.Add(1)
	go func() { defer reaped.Done(); g.reap() }()

	dur := func(share float64) time.Duration { return time.Duration(seconds * share * float64(time.Second)) }
	t0 := time.Now()
	if w.fixedList() {
		g.closedList("warm", len(w.classes), w.window)
	} else {
		g.closedList("warm", warmJobs, 2)
	}
	p.before = scrape(st)
	speed := startSpeedSampler()
	cpu0 := st.cpuSeconds()
	if w.fixedList() {
		cycles := int(seconds*w.cyclesPerSec + 0.5)
		if cycles < 1 {
			cycles = 1
		}
		g.closedList("list", cycles*len(w.classes), w.window)
		p.cpuS = st.cpuSeconds() - cpu0
	} else {
		g.openLoop("open", schedule(seed, w.openRate, dur(w.openShare)))
		p.cpuS = st.cpuSeconds() - cpu0
		p.satStart, p.satDur = time.Now(), dur(1-w.openShare)
		g.closedFor("sat", p.satDur, w.satWindow)
	}
	p.slowness = speed.index()
	g.finish()
	reaped.Wait()
	p.after = scrape(st)
	p.wallS = time.Since(t0).Seconds()
	p.jobs, p.pollMs = g.jobs, g.pollMs
	if !st.alive() {
		return nil, fmt.Errorf("invalid run: a server process died")
	}
	return p, nil
}

// scrape sums every unlabelled series on /metrics over the deployment's
// servers: the nodes and, in a cluster, the router (whose own counters
// have names no node uses; its cluster_specd_* re-exports are not read).
func scrape(st *stack) map[string]float64 {
	sum := make(map[string]float64)
	urls := st.nodes
	if st.url != st.nodes[0] {
		urls = append([]string{st.url}, st.nodes...)
	}
	for _, u := range urls {
		text, err := client.New(u).Metrics(context.Background())
		if err != nil {
			continue // a missing scrape shows as a zero delta, not as a failed run
		}
		for _, line := range strings.Split(text, "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				sum[name] += v
			}
		}
	}
	return sum
}

// delta is a counter's growth over the measured phases.
func (p *pass) delta(name string) float64 { return p.after[name] - p.before[name] }

// measured returns the jobs of a phase that passed the result check
// (class < 0: every class).
func (p *pass) measured(phase string, class int) []*jobRec {
	var out []*jobRec
	for _, r := range p.jobs {
		if r.phase == phase && r.err == nil && (class < 0 || r.class == class) {
			out = append(out, r)
		}
	}
	return out
}

func collect(jobs []*jobRec, f func(*jobRec) float64) []float64 {
	out := make([]float64, len(jobs))
	for i, r := range jobs {
		out[i] = f(r)
	}
	return out
}

func latencyMs(r *jobRec) float64 { return ms(r.latency()) }
func submitMs(r *jobRec) float64  { return ms(r.acked.Sub(r.sent)) }

// refJobs are the jobs whose latency is reported: the reference class of
// a fixed list, every job of the open phase otherwise.
func (p *pass) refJobs() []*jobRec {
	if p.w.fixedList() {
		return p.measured("list", p.w.ref)
	}
	return p.measured("open", -1)
}

// costJobs are the jobs submit time and CPU are averaged over.
func (p *pass) costJobs() []*jobRec {
	if p.w.fixedList() {
		return p.measured("list", -1)
	}
	return p.measured("open", -1)
}

// throughput is jobs completed per second of the closed-loop phase: the
// whole list from first send to last finish, or the saturation window.
func (p *pass) throughput() sample {
	if p.w.fixedList() {
		jobs := p.measured("list", -1)
		if len(jobs) == 0 {
			return sample{}
		}
		first, last := jobs[0].sent, *jobs[0].st.FinishedAt
		for _, r := range jobs {
			if r.st.FinishedAt.After(last) {
				last = *r.st.FinishedAt
			}
		}
		return sample{float64(len(jobs)) / last.Sub(first).Seconds(), len(jobs)}
	}
	// Completions inside the window, over the time to the last of them:
	// a count over the fixed window length would move in steps of 1/satDur.
	n := 0
	end, last := p.satStart.Add(p.satDur), p.satStart
	for _, r := range p.measured("sat", -1) {
		if f := *r.st.FinishedAt; !f.After(end) {
			n++
			if f.After(last) {
				last = f
			}
		}
	}
	if n == 0 {
		return sample{}
	}
	return sample{float64(n) / last.Sub(p.satStart).Seconds(), n}
}

// endToEnd computes the untraced metrics of a pass (all but setup_s).
func (p *pass) endToEnd() map[string]sample {
	ref := sorted(collect(p.refJobs(), latencyMs))
	cost := p.costJobs()
	m := map[string]sample{
		"jobs_per_s":    p.throughput(),
		"lat_ms.p50":    {percentile(ref, 0.5), len(ref)},
		"submit_ms.p50": {median(collect(cost, submitMs)), len(cost)},
	}
	if len(cost) > 0 {
		m["cpu_ms_per_job"] = sample{p.cpuS * 1000 / float64(len(cost)), len(cost)}
	}
	return m
}

// tally counts attempted and failed jobs over passes and prints up to
// five failures.
func tally(passes ...*pass) (attempted, failed int) {
	for _, p := range passes {
		for _, r := range p.jobs {
			attempted++
			if r.err != nil {
				if failed++; failed <= 5 {
					fmt.Printf("FAILED job %d (%s %s): %v\n", r.idx, r.phase, p.w.classes[r.class].name, r.err)
				}
			}
		}
	}
	return attempted, failed
}

// maxLateMs invalidates a run whose generator fell behind its own
// schedule: the latencies would then measure the generator.
const maxLateMs = 5

// lateP99 is the 99th percentile of the generator's own lateness in the
// open phase: how long after a job was due, and the connection was free,
// its POST began. Waiting for the previous POST to return is the server's
// doing and counts in latency, not here.
func (p *pass) lateP99() float64 {
	var late []float64
	var free time.Time // when the submitter's connection became free
	for _, r := range p.jobs {
		if r.phase == "open" {
			from := r.due
			if free.After(from) {
				from = free
			}
			late = append(late, ms(r.sent.Sub(from)))
		}
		free = r.acked
	}
	return percentile(sorted(late), 0.99)
}

// runEndToEnd is a `-trace 0` run: real specd subprocesses, tracing off.
// A pass in which the generator itself ran late says nothing about specd;
// it is repeated once on a fresh deployment before the run is given up as
// invalid.
func runEndToEnd(e *env, w *workloadDef, seed uint64, seconds float64) (result, map[string]sample, error) {
	var setupS []float64
	var p *pass
	for launch, passes := 0, 0; p == nil; launch++ {
		dir := filepath.Join(e.work, w.name+"-"+strconv.Itoa(launch))
		st, err := e.startStack(w, dir)
		if err != nil {
			return result{}, nil, err
		}
		if setupS = append(setupS, st.setup.Seconds()); len(setupS) < setups {
			st.stop()
			os.RemoveAll(dir)
			continue
		}
		printFlags(st)
		p, err = runPass(st, w, seed, seconds, nil)
		st.stop()
		os.RemoveAll(dir) // -repeat must not run its tenth run on a disk holding the other nine
		if err != nil {
			return result{}, nil, err
		}
		fmt.Printf("# measured pass took %.1f s, generator lateness p99 %.3f ms, machine slowness %.4f\n", p.wallS, p.lateP99(), p.slowness)
		if passes++; p.lateP99() > maxLateMs {
			if passes == 2 {
				return result{}, nil, fmt.Errorf("invalid run: generator lateness p99 %.2f ms exceeds %d ms twice", p.lateP99(), maxLateMs)
			}
			p = nil
		}
	}
	m := p.endToEnd()
	m["setup_s"] = sample{median(setupS), len(setupS)}
	for _, d := range endToEnd {
		// Reported at the reference machine speed (calib.go); the value as
		// the clock gave it stays in m under "raw <name>".
		sm := m[d.Name]
		factor := 1 + w.speedShare*(p.slowness-1)
		if m["raw "+d.Name] = sm; d.Unit == "1/s" {
			sm.v *= factor
		} else {
			sm.v /= factor
		}
		m[d.Name] = sm
	}
	m["machine.slowness"] = sample{p.slowness, 1}
	return report(endToEnd, m, p), m, nil
}

// report builds the result object: the values of defs, and the jobs of
// the passes counted and checked. A value that could not be computed
// (no job of its kind succeeded) reads 0.
func report(defs []metricDef, m map[string]sample, passes ...*pass) result {
	res := result{Metrics: make(map[string]metric)}
	res.Attempted, res.Failed = tally(passes...)
	res.Correct = res.Failed == 0
	for _, d := range defs {
		v := m[d.Name].v
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = metric{v, d.Unit}
	}
	return res
}

func printFlags(st *stack) {
	for _, f := range st.flags {
		fmt.Printf("# specd %s\n", strings.Join(f, " "))
	}
}
