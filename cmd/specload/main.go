// Command specload is a load generator for specd: it submits N jobs
// concurrently, polls each to completion, and reports a summary with
// per-target request-latency histograms. Used by the e2e tests
// (through its client package) and for manual soak runs against a live
// daemon or cluster:
//
//	specload -addr http://127.0.0.1:8080 -jobs 16 -workload cc -size 500
//	specload -addr http://127.0.0.1:8080,http://127.0.0.1:8081 -jobs 32
//
// With multiple comma-separated targets, specload drives them through
// one failover client: requests stick to the first reachable target and
// rotate on transport errors, timeouts and 503/504 answers, so a soak
// run rides through a router or node restart. Jobs vary the seed (base
// seed + index) so a run exercises distinct executions. Exit status is
// nonzero if any accepted job failed, or if rejected jobs were not
// expected (-expect-reject=false).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/service"
	"repro/internal/service/client"
)

// latencyRecorder accumulates per-request latencies and an error-class
// breakdown for one target, fed by the client's Observe hook.
type latencyRecorder struct {
	mu      sync.Mutex
	byClass map[string][]time.Duration
	byErr   map[string]int // requests by error class ("ok" omitted)
}

func newLatencyRecorder() *latencyRecorder {
	return &latencyRecorder{
		byClass: make(map[string][]time.Duration),
		byErr:   make(map[string]int),
	}
}

func (lr *latencyRecorder) observe(method, path string, status int, err error, elapsed time.Duration) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.byClass[opClass(method, path)] = append(lr.byClass[opClass(method, path)], elapsed)
	if class := errClass(status, err); class != "ok" {
		lr.byErr[class]++
	}
}

// errClass buckets one request's outcome: a slow target (timeout) reads
// differently from a refused connection (transport), backpressure
// (429), or a failing server (5xx).
func errClass(status int, err error) string {
	switch {
	case err != nil:
		var ne net.Error
		if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
			return "timeout"
		}
		return "transport"
	case status == http.StatusTooManyRequests:
		return "429"
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	default:
		return "ok"
	}
}

// opClass buckets requests into a few stable operation names so the
// histogram summary stays readable.
func opClass(method, path string) string {
	switch {
	case method == "POST" && strings.HasSuffix(path, "/v1/jobs"):
		return "submit"
	case method == "GET" && strings.HasSuffix(path, "/v1/jobs"):
		return "list"
	case method == "GET" && strings.Contains(path, "/v1/jobs/"):
		return "poll"
	case method == "DELETE" && strings.Contains(path, "/v1/jobs/"):
		return "cancel"
	case strings.HasSuffix(path, "/healthz"):
		return "health"
	case strings.HasSuffix(path, "/metrics"):
		return "metrics"
	default:
		return method + " " + path
	}
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted
// latencies using nearest-rank; zero on an empty slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// summarize prints one histogram line per operation class.
func (lr *latencyRecorder) summarize(target string) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	classes := make([]string, 0, len(lr.byClass))
	for c := range lr.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		ds := lr.byClass[c]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		fmt.Printf("specload: latency %-28s %-8s n=%-6d p50=%-10s p90=%-10s p99=%s\n",
			target, c, len(ds), percentile(ds, 50), percentile(ds, 90), percentile(ds, 99))
	}
	if len(lr.byErr) > 0 {
		classes := make([]string, 0, len(lr.byErr))
		for c := range lr.byErr {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		parts := make([]string, len(classes))
		for i, c := range classes {
			parts[i] = fmt.Sprintf("%s=%d", c, lr.byErr[c])
		}
		fmt.Printf("specload: errors  %-28s %s\n", target, strings.Join(parts, " "))
	}
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "specd base URL(s), comma-separated for failover")
	jobs := flag.Int("jobs", 8, "number of jobs to submit concurrently")
	wl := flag.String("workload", "cc", "workload name (mesh | boruvka | sp | cluster | des | maxflow | cc)")
	ctrl := flag.String("ctrl", "hybrid", "controller name")
	rho := flag.Float64("rho", 0.25, "target conflict ratio")
	fixedM := flag.Int("m", 32, "processor count for -ctrl fixed")
	size := flag.Int("size", 500, "workload size parameter")
	seed := flag.Uint64("seed", 1, "base PRNG seed (job i uses seed+i)")
	parallel := flag.Int("parallel", 0, "per-job executor workers, in every mode (0 = server default, -1 = the node's GOMAXPROCS)")
	poll := flag.Duration("poll", 100*time.Millisecond, "status poll interval")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall deadline")
	expectReject := flag.Bool("expect-reject", true, "treat 429 rejections as expected backpressure")
	retries := flag.Int("retries", 0, "resubmit attempts after a 429, honoring Retry-After")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "base backoff between resubmits (doubles, jittered)")
	chaosSeed := flag.Uint64("chaos-seed", 0, "seed for the client-side chaos transport (with -chaos-plan)")
	chaosPlan := flag.String("chaos-plan", "", `client-side fault plan, e.g. "specload>*:lat=10ms..50ms,err=0.05" (src is "specload")`)
	tenant := flag.String("tenant", "", "tenant to submit every job under (empty = server default)")
	priority := flag.Int("priority", 0, "job priority 1..9 (0 = tenant default)")
	mix := flag.String("mix", "", `weighted tenant mix, e.g. "gold:3,free:1" — job i cycles through the weighted slots (overrides -tenant)`)
	flag.Parse()

	// A "-mix a:3,b:1" expands into weighted slots [a a a b]; job i
	// submits under slots[i%len], so the submitted mix follows the
	// weights without randomness.
	var slots []string
	if *mix != "" {
		for _, part := range strings.Split(*mix, ",") {
			name, wstr, found := strings.Cut(strings.TrimSpace(part), ":")
			w := 1
			if found {
				if _, err := fmt.Sscanf(wstr, "%d", &w); err != nil || w < 1 {
					fmt.Fprintf(os.Stderr, "specload: bad -mix entry %q (want name:weight)\n", part)
					os.Exit(2)
				}
			}
			if name == "" {
				fmt.Fprintf(os.Stderr, "specload: bad -mix entry %q (empty tenant)\n", part)
				os.Exit(2)
			}
			for k := 0; k < w; k++ {
				slots = append(slots, name)
			}
		}
	}
	tenantFor := func(i int) string {
		if len(slots) > 0 {
			return slots[i%len(slots)]
		}
		return *tenant
	}

	var chaosLinks map[string]faultinject.LinkFault
	if *chaosPlan != "" {
		var err error
		if chaosLinks, err = faultinject.ParseChaosPlan(*chaosPlan); err != nil {
			fmt.Fprintf(os.Stderr, "specload: bad -chaos-plan: %v\n", err)
			os.Exit(2)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var targets []string
	for _, t := range strings.Split(*addr, ",") {
		if t = strings.TrimRight(strings.TrimSpace(t), "/"); t != "" {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "specload: -addr names no targets")
		os.Exit(2)
	}
	recorders := make(map[string]*latencyRecorder, len(targets))
	for _, t := range targets {
		recorders[t] = newLatencyRecorder()
	}
	c := client.New(targets[0], targets[1:]...)
	c.Observe = func(target, method, path string, status int, err error, elapsed time.Duration) {
		recorders[target].observe(method, path, status, err, elapsed)
	}
	if chaosLinks != nil {
		c.HTTPClient = &http.Client{
			Timeout: 10 * time.Second,
			Transport: &faultinject.ChaosTransport{
				Src:    "specload",
				Config: faultinject.ChaosConfig{Seed: *chaosSeed, Links: chaosLinks},
			},
		}
	}

	h, err := c.Health(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "specload: server not healthy: %v\n", err)
		os.Exit(1)
	}
	if h.Role != "" {
		fmt.Printf("specload: driving %s (role %s) with %d jobs\n", c.LastTarget(), h.Role, *jobs)
	}

	type outcome struct {
		id       string
		tenant   string
		rejected bool
		retries  int
		err      error
	}
	results := make([]outcome, *jobs)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn := tenantFor(i)
			st, stats, err := c.SubmitRetry(ctx, service.JobSpec{
				Workload:   *wl,
				Controller: *ctrl,
				Rho:        *rho,
				FixedM:     *fixedM,
				Size:       *size,
				Seed:       *seed + uint64(i),
				Parallel:   *parallel,
				Tenant:     tn,
				Priority:   *priority,
			}, client.Backoff{
				MaxRetries: *retries,
				Base:       *backoff,
				Seed:       *seed + uint64(i),
			})
			switch {
			case errors.Is(err, client.ErrBusy):
				results[i] = outcome{tenant: tn, rejected: true, retries: stats.Retries}
			case err != nil:
				results[i] = outcome{tenant: tn, err: err, retries: stats.Retries}
			default:
				results[i] = outcome{id: st.ID, tenant: tn, retries: stats.Retries}
			}
		}(i)
	}
	wg.Wait()

	accepted, rejected, retried, failed := 0, 0, 0, 0
	var totalCommits, totalAborts int64
	type tenantTally struct{ accepted, rejected, completed int }
	byTenant := make(map[string]*tenantTally)
	tally := func(tn string) *tenantTally {
		if tn == "" {
			tn = service.DefaultTenant
		}
		if t, ok := byTenant[tn]; ok {
			return t
		}
		t := &tenantTally{}
		byTenant[tn] = t
		return t
	}
	for _, r := range results {
		retried += r.retries
		switch {
		case r.err != nil:
			fmt.Fprintf(os.Stderr, "specload: submit failed: %v\n", r.err)
			failed++
			continue
		case r.rejected:
			rejected++
			tally(r.tenant).rejected++
			continue
		}
		accepted++
		tally(r.tenant).accepted++
		st, err := c.Wait(ctx, r.id, *poll)
		if err != nil {
			fmt.Fprintf(os.Stderr, "specload: waiting for %s: %v\n", r.id, err)
			failed++
			continue
		}
		totalCommits += st.Committed
		totalAborts += st.Aborted
		line := fmt.Sprintf("%-5s %-9s rounds=%-6d committed=%-8d aborted=%-7d ratio=%.3f",
			st.ID, st.State, st.Rounds, st.Committed, st.Aborted, st.ConflictRatio)
		if st.Node != "" {
			line += " node=" + st.Node
		}
		if st.State == service.StateDone {
			fmt.Printf("%s %s\n", line, st.Result)
			tally(r.tenant).completed++
		} else {
			fmt.Printf("%s %s\n", line, st.Error)
			failed++
		}
	}

	fmt.Printf("specload: %d submitted, %d accepted, %d rejected (429), %d retried, %d failed in %.2fs; commits=%d aborts=%d\n",
		*jobs, accepted, rejected, retried, failed, time.Since(start).Seconds(), totalCommits, totalAborts)
	if len(byTenant) > 1 || *mix != "" {
		names := make([]string, 0, len(byTenant))
		for tn := range byTenant {
			names = append(names, tn)
		}
		sort.Strings(names)
		for _, tn := range names {
			t := byTenant[tn]
			fmt.Printf("specload: tenant %-12s accepted=%-5d completed=%-5d rejected=%d\n",
				tn, t.accepted, t.completed, t.rejected)
		}
	}
	for _, t := range targets {
		recorders[t].summarize(t)
	}
	if failed > 0 || (rejected > 0 && !*expectReject) {
		os.Exit(1)
	}
}
