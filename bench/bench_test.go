package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

func findWorkload(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func TestPercentileRule(t *testing.T) {
	// The reported tail is the highest percentile with >= 10 samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 1: 10} {
		if got := percentile(asc, p); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("relSpread(1..5) = %v, want 1", got)
	}
}

func TestScheduleDeterministicFromSeed(t *testing.T) {
	const rate, d = 100.0, 2 * time.Second
	a, b, c := schedule(7, rate, d), schedule(7, rate, d), schedule(8, rate, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	if len(a) != 200 || a[0] != 0 {
		t.Fatalf("schedule has %d sends starting at %v, want 200 starting at 0", len(a), a[0])
	}
	mean := d / 200
	for i := 1; i < len(a); i++ {
		if gap := a[i] - a[i-1]; gap < mean/4 || gap > 2*mean {
			t.Fatalf("gap %d is %v, outside the jitter range around %v", i, gap, mean)
		}
	}
	if last := a[len(a)-1]; last >= d {
		t.Fatalf("last send at %v, not inside %v", last, d)
	}
}

func TestJobSeedsDeriveFromSeed(t *testing.T) {
	w, _ := findWorkload("apps_mix")
	for idx := 0; idx < 24; idx++ {
		c1, s1 := w.job(3, idx)
		c2, s2 := w.job(3, idx)
		if c1 != c2 || !reflect.DeepEqual(s1, s2) {
			t.Fatalf("job %d differs between two calls with one seed", idx)
		}
		if s1.Seed == 0 || s1.MaxDuration == 0 {
			t.Fatalf("job %d: seed %d, max_duration %v", idx, s1.Seed, s1.MaxDuration)
		}
	}
	_, a := w.job(3, 0)
	_, b := w.job(4, 0)
	if a.Seed == b.Seed {
		t.Fatal("job 0 has the same seed under -seed 3 and 4")
	}
}

// fakeSpecd answers the two calls the generator makes. A POST takes
// `ack`; the job is finished 1 ms after it was accepted.
func fakeSpecd(ack time.Duration) http.Handler {
	var mu sync.Mutex
	accepted := map[string]time.Time{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		id := fmt.Sprintf("j%d", len(accepted)+1)
		now := time.Now()
		accepted[id] = now
		mu.Unlock()
		time.Sleep(ack)
		json.NewEncoder(w).Encode(service.JobStatus{ID: id, State: service.StateQueued, SubmittedAt: now})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		at := accepted[r.PathValue("id")]
		mu.Unlock()
		fin := at.Add(time.Millisecond)
		json.NewEncoder(w).Encode(service.JobStatus{ID: r.PathValue("id"), State: service.StateDone,
			SubmittedAt: at, StartedAt: &at, FinishedAt: &fin, Committed: 200, Result: "graph drained"})
	})
	return mux
}

// A server slower than the schedule must not slow the clock: latency runs
// from when a job was due, and the generator's lateness is accounted.
func TestOpenLoopTimesFromDue(t *testing.T) {
	srv := httptest.NewServer(fakeSpecd(10 * time.Millisecond))
	defer srv.Close()
	w, _ := findWorkload("small_jobs")
	g := newLoadgen(w, 1, srv.URL, nil)
	done := make(chan struct{})
	go func() { g.reap(); close(done) }()
	sched := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	g.openLoop("open", sched)
	g.finish()
	<-done

	if len(g.jobs) != len(sched) {
		t.Fatalf("%d jobs sent, want %d", len(g.jobs), len(sched))
	}
	for i, r := range g.jobs {
		if r.err != nil {
			t.Fatalf("job %d: %v", i, r.err)
		}
		if want := g.jobs[0].due.Add(sched[i]); !r.due.Equal(want) {
			t.Errorf("job %d due %v, want %v", i, r.due, want)
		}
		if got, want := r.latency(), r.st.FinishedAt.Sub(r.due); got != want {
			t.Errorf("job %d latency %v, want finished_at-due = %v", i, got, want)
		}
	}
	// Each POST takes 10 ms and sends are 1 ms apart on one connection, so
	// job 3 goes out ~27 ms late, and its latency includes that wait.
	last := g.jobs[3]
	if late := last.sent.Sub(last.due); late < 20*time.Millisecond {
		t.Errorf("job 3 sent %v late, want >= 20ms", late)
	}
	if last.latency() < 20*time.Millisecond {
		t.Errorf("job 3 latency %v hides the generator's lateness", last.latency())
	}
	// That wait was for the server, not for the generator: its own lateness
	// (due and connection free -> POST begun) stays small.
	p := &pass{w: w, jobs: g.jobs}
	if late := p.lateP99(); late > maxLateMs {
		t.Errorf("generator's own lateness p99 %v ms, want <= %d", late, maxLateMs)
	}
}

func TestClosedLoopKeepsWindow(t *testing.T) {
	var mu sync.Mutex
	inflight, peak := 0, 0
	inner := fakeSpecd(2 * time.Millisecond)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			if inflight++; inflight > peak {
				peak = inflight
			}
			mu.Unlock()
			defer func() { mu.Lock(); inflight--; mu.Unlock() }()
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	w, _ := findWorkload("small_jobs")
	g := newLoadgen(w, 1, srv.URL, nil)
	done := make(chan struct{})
	go func() { g.reap(); close(done) }()
	g.closedList("list", 12, 3)
	g.finish()
	<-done
	if len(g.jobs) != 12 || peak != 1 {
		t.Fatalf("%d jobs, %d concurrent POSTs; want 12 jobs from one submitter", len(g.jobs), peak)
	}
	for _, r := range g.jobs {
		if r.err != nil || r.polls == 0 {
			t.Fatalf("job %d: err %v after %d polls", r.idx, r.err, r.polls)
		}
	}
}

func TestSpeedSampler(t *testing.T) {
	s := startSpeedSampler()
	time.Sleep(5 * calibEvery)
	if idx := s.index(); idx <= 0.05 || idx > 50 {
		t.Errorf("machine slowness %v: the kernel should take about calibRefMs (%v ms)", idx, calibRefMs)
	}
	if idx := startSpeedSampler().index(); idx != 1 {
		t.Errorf("a sampler stopped before its first sample reports %v, want 1", idx)
	}
}

func at(msec int) time.Time { return time.Unix(1000, 0).Add(time.Duration(msec) * time.Millisecond) }

func TestSelfTime(t *testing.T) {
	parent := &span{ID: 1, Start: at(0), End: at(100)}
	kids := []*span{
		{ID: 3, Start: at(20), End: at(50)}, // overlaps the next one
		{ID: 2, Start: at(10), End: at(30)},
		{ID: 4, Start: at(90), End: at(120)}, // sticks out of the parent
	}
	// Covered: [10,50] and [90,100] = 50 of 100.
	if got := selfTime(parent, kids); got != 50*time.Millisecond {
		t.Errorf("self time %v, want 50ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("self time without children %v, want 100ms", got)
	}
}

func TestCriticalPathAndResolve(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Job: "j1", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "gen.late", Start: at(0), End: at(10)},
		{ID: 3, Parent: 1, Name: "client.submit", Start: at(10), End: at(40)},
		{ID: 4, Parent: 3, Name: "service.http", Node: "node", Start: at(12), End: at(38)},
		{ID: 5, Parent: 4, Name: "vfs.sync", Node: "node", Start: at(22), End: at(36)}, // the ack's fsync
		{ID: 6, Parent: 1, Name: "service.queue", Node: "node", Start: at(20), End: at(25)},
		{ID: 7, Parent: 1, Name: "service.run", Node: "node", Start: at(25), End: at(100)},
		{ID: 8, Name: "vfs.sync", Node: "node", Start: at(30), End: at(35)},   // the runner's started record
		{ID: 9, Name: "vfs.sync", Node: "node", Start: at(101), End: at(105)}, // finish record: background
		{ID: 10, Name: "vfs.sync", Node: "other", Start: at(50), End: at(55)}, // another node's disk
	}
	resolve(spans)
	if spans[7].Parent != 7 || spans[7].Job != "j1" {
		t.Errorf("runner's fsync resolved to parent %d job %q, want 7 j1", spans[7].Parent, spans[7].Job)
	}
	if spans[8].Parent != 0 || spans[9].Parent != 0 {
		t.Errorf("background fsyncs got parents %d and %d", spans[8].Parent, spans[9].Parent)
	}
	if spans[4].Job != "j1" {
		t.Errorf("the ack's fsync did not inherit its job: %q", spans[4].Job)
	}
	got := criticalPath(&spans[0], children(spans))
	// Once queued (t=20) the job no longer waits for its own POST, so the
	// ack's fsync is not on the path; the runner's is.
	want := map[string]time.Duration{
		"gen.late": 10, "client.submit": 2, "service.http": 8,
		"service.queue": 5, "service.run": 70, "vfs.sync": 5,
	}
	for name, msec := range want {
		if got[name] != msec*time.Millisecond {
			t.Errorf("critical path gives %s %v, want %dms (all: %v)", name, got[name], msec, got)
		}
	}
	var total time.Duration
	for _, d := range got {
		total += d
	}
	if total != 100*time.Millisecond {
		t.Errorf("critical path sums to %v, want the job's 100ms", total)
	}
}

func TestResultCheck(t *testing.T) {
	c := ccClass(200, service.ModeRound)
	ok := service.JobStatus{State: service.StateDone, Committed: 200, Result: "nodes-processed=200 (graph drained)"}
	if err := c.check(ok); err != nil {
		t.Errorf("good job rejected: %v", err)
	}
	for name, mutate := range map[string]func(*service.JobStatus){
		"canceled":      func(s *service.JobStatus) { s.State = service.StateCanceled },
		"no oracle":     func(s *service.JobStatus) { s.Result = "degraded: 3 tasks quarantined" },
		"short commits": func(s *service.JobStatus) { s.Committed = 199 },
	} {
		bad := ok
		mutate(&bad)
		if c.check(bad) == nil {
			t.Errorf("%s: bad job accepted", name)
		}
	}
}

// BENCHMARK.json is generated (`go run -C bench . -manifest`); this keeps
// it from drifting from the tables the program reports from.
func TestManifestIsCurrent(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := manifest(); !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run -C bench . -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 {
			t.Errorf("metric name %q is repeated or too long", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is %d characters, the manifest allows one line of 200", w.name, len(w.why))
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the manifest allows 128", len(perLayer))
	}
}

// TestSmoke runs every workload end to end for one second against real
// specd subprocesses, and one traced run, checking that each reports
// exactly its table, every value finite, every job correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches specd")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	check := func(name string, res result, defs []metricDef) {
		t.Helper()
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics reported, %d defined", name, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v (present %v)", name, d.Name, m, ok)
			}
		}
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("%s: result does not marshal: %v", name, err)
		}
	}
	for i := range workloads {
		w := &workloads[i]
		res, _, err := runEndToEnd(e, w, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		check(w.name, res, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.Name, res.Metrics[d.Name].Value)
			}
		}
	}
	w, _ := findWorkload("cluster_small")
	res, samples, err := runTraced(e, w, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	check("cluster_small traced", res, perLayer)
	if share := samples["trace.attributed_share"].v; share < 0.8 {
		t.Errorf("traced run attributes %.0f%% of the median latency to named spans, want >= 80%%", share*100)
	}
	for _, name := range []string{"path.cluster.rpc_ms", "path.service.run_ms", "ack.vfs.sync_ms", "cluster.hop_ms"} {
		if samples[name].v <= 0 {
			t.Errorf("%s = %v on a cluster run, want > 0", name, samples[name].v)
		}
	}
	if !strings.HasPrefix(e.work, filepath.Join(e.root, ".bench_build")) {
		t.Errorf("scratch dir %s is outside the checkout's .bench_build", e.work)
	}
}
