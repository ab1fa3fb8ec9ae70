package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/rng"
	"repro/internal/service"
)

// jobClass is one kind of job a workload submits.
type jobClass struct {
	name string
	// spec is the template; Seed, Tenant, Priority and MaxDuration are
	// filled per job.
	spec service.JobSpec
	// verified is a substring of the line the workload's Verify oracle
	// returns; a done job without it did not pass the oracle.
	verified string
	// commits is the exact committed-task total of a complete run, 0
	// where the workload does not fix one.
	commits int64
	// seedPool, when set, replaces seed-derived job seeds: maxflow's
	// work varies ~300x by seed (10 ms or 1.5 s at the same size), so its
	// jobs cycle through seeds pinned to the heavy mode and -seed only
	// rotates the starting point.
	seedPool []uint64
}

// workloadDef is one benchmark workload. Sizes, rates and list lengths
// are frozen here after sizing on the commit that introduced the
// benchmark; they never adapt to the commit under test.
type workloadDef struct {
	name string
	why  string

	classes []jobClass
	// ref indexes the class whose latency distribution is reported;
	// throughput and CPU cover every class.
	ref int

	// Fixed-list workloads drain cycles over classes with `window` jobs
	// outstanding; the list holds round(seconds*cyclesPerSec) cycles.
	window       int
	cyclesPerSec float64

	// Service workloads run an open-loop phase at openRate jobs/s for
	// openShare of the run, then a closed loop of satWindow jobs for the
	// rest.
	openRate  float64
	openShare float64
	satWindow int

	cluster bool // router + 3 nodes instead of one node
	tenants bool // four-tenant admission file

	// speedShare is the share of this workload's time that follows the
	// machine-speed index (calib.go): near 1 where both vCPUs compute all
	// the time, about a half where a job mostly waits on syscalls, fsyncs
	// and wake-ups. Measured, not chosen: it is the value that minimised the
	// run-to-run spread of the workload's metrics over 20 runs whose
	// slowness ranged from 0.8 to 1.6 (e.g. lat_ms.p50, cv with share
	// 0/0.5/0.75/1: exec_heavy_round 18/8/6/6 %, apps_mix 23/18/16/14 %,
	// small_jobs 4.9/3.7/5.9/8.6 %, cluster_small 20/15/14/13 %).
	speedShare float64
}

func (w *workloadDef) fixedList() bool { return w.openRate == 0 }

const (
	rho         = 0.25
	maxDuration = 20 * time.Second // per job, so one pathological input cannot eat the run
	queueCap    = 1024             // large enough that nothing is refused
)

func synth(workload string, size int, degree float64, mode string) service.JobSpec {
	return service.JobSpec{Workload: workload, Controller: "hybrid", Rho: rho,
		Size: size, Degree: degree, Mode: mode}
}

func stableClass(size int, mode string) jobClass {
	return jobClass{name: "stable", spec: synth("stable", size, 0, mode),
		verified: "all chains drained exactly", commits: 24 * int64(size)}
}

func ccClass(size int, mode string) jobClass {
	return jobClass{name: "cc", spec: synth("cc", size, 16, mode),
		verified: "graph drained", commits: int64(size)}
}

func execHeavy(mode string, cyclesPerSec float64) workloadDef {
	return workloadDef{
		name: "exec_heavy_" + mode,
		why: "large synthetic jobs in " + mode + " mode, one at a time: operator cost is ~0, so time is the " +
			"executor, the controller and the service round loop; HTTP, admission and WAL are a few percent",
		classes:      []jobClass{stableClass(2500, mode), ccClass(10000, mode)},
		window:       1,
		cyclesPerSec: cyclesPerSec,
		speedShare:   0.75,
	}
}

var smallJobs = workloadDef{
	name: "small_jobs",
	why: "2.5 ms jobs, open loop then saturation, four tenants: per-job fixed cost dominates (JSON, token bucket + DRR, " +
		"three fsynced WAL records, status rendering), the executor does little",
	classes:    []jobClass{ccClass(200, service.ModeRound)},
	openRate:   140,
	openShare:  0.5,
	satWindow:  8,
	tenants:    true,
	speedShare: 0.5,
}

func clusterSmall() workloadDef {
	w := smallJobs
	w.name = "cluster_small"
	w.why = "the small_jobs schedule through a router fronting three nodes: the only difference is the cluster layer " +
		"(placement WAL, ring lookup, proxied POST, proxied and hedged GET)"
	w.cluster = true
	w.speedShare = 0.75 // four processes on two vCPUs: more compute-bound than one node
	return w
}

// workloads lists every workload in the order `-workload all` runs them.
// The three exec_heavy workloads are the ISSUE's three exec_heavy phases:
// the driver wants every end-to-end metric from every workload, so a
// per-mode metric has to be a per-mode workload.
var workloads = []workloadDef{
	execHeavy(service.ModeRound, 4.1),
	execHeavy(service.ModeAsync, 3.0),
	execHeavy(service.ModeColored, 2.9),
	{
		name: "apps_mix",
		why: "the paper's irregular programs in round mode, two at a time: real operators, undo logs, cautious commits, " +
			"the ordered executor (des); workload build and Verify oracles show here and nowhere else",
		classes: []jobClass{
			{name: "mesh", spec: synth("mesh", 6000, 0, ""), verified: "bad-remaining=0"},
			{name: "boruvka", spec: synth("boruvka", 6000, 0, ""), verified: "verified against Kruskal"},
			{name: "sp", spec: synth("sp", 1000, 0, ""), verified: "final-sweep-residual"},
			{name: "cluster", spec: synth("cluster", 1500, 0, ""), verified: "dendrogram verified"},
			{name: "des", spec: synth("des", 3000, 0, ""), verified: "bit-identical to sequential oracle"},
			{name: "maxflow", spec: synth("maxflow", 400, 0, ""), verified: "verified against Edmonds-Karp",
				seedPool: []uint64{1, 2, 3, 4, 5, 7, 11, 12, 13, 14, 15, 18, 19, 21, 23, 24}},
		},
		ref:          4,
		window:       2,
		cyclesPerSec: 1.8,
		speedShare:   1,
	},
	smallJobs,
	clusterSmall(),
}

// Four tenants: weights 3:2:1 plus a negative-weight scavenger, no rate
// limits. Jobs carry priorities 3/5/7, so arrivals can preempt.
var tenantsFile = service.TenantsFile{
	Defaults: service.TenantConfig{MaxPending: queueCap},
	Tenants: []service.TenantConfig{
		{Name: "gold", Weight: 3},
		{Name: "silver", Weight: 2},
		{Name: "bronze", Weight: 1},
		{Name: "scav", Weight: -1},
	},
}

var priorities = []int{3, 5, 7}

// mix derives the idx-th job seed of a run: a pure function of -seed,
// never 0 (0 would select the server default).
func mix(seed uint64, idx int) uint64 {
	return rng.New(seed*1_000_003+uint64(idx)).Uint64() | 1
}

// job builds the idx-th job of a run: its class and the spec the server
// receives. The server sees nothing of -seed but these specs.
func (w *workloadDef) job(seed uint64, idx int) (class int, spec service.JobSpec) {
	class = idx % len(w.classes)
	c := &w.classes[class]
	spec = c.spec
	if c.seedPool != nil {
		spec.Seed = c.seedPool[(seed+uint64(idx/len(w.classes)))%uint64(len(c.seedPool))]
	} else {
		spec.Seed = mix(seed, idx)
	}
	spec.MaxDuration = service.Duration(maxDuration)
	if w.tenants {
		spec.Tenant = tenantsFile.Tenants[idx%len(tenantsFile.Tenants)].Name
		spec.Priority = priorities[idx%len(priorities)]
	}
	return class, spec
}

// check is the result check applied to every job: it ran to done, the
// workload's own oracle passed, and it committed exactly the known total.
func (c *jobClass) check(st service.JobStatus) error {
	switch {
	case st.State != service.StateDone:
		return fmt.Errorf("state %s (%s %s)", st.State, st.Reason, st.Error)
	case !strings.Contains(st.Result, c.verified):
		return fmt.Errorf("result %q lacks %q", st.Result, c.verified)
	case c.commits != 0 && st.Committed != c.commits:
		return fmt.Errorf("committed %d, want %d", st.Committed, c.commits)
	}
	return nil
}
