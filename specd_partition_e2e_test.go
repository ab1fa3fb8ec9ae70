package repro

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/service/client"
)

// switchTransport toggles a chaos transport on and off mid-run, so a
// test can arm a partition after the cluster has formed and heal it
// later without rebuilding clients.
type switchTransport struct {
	armed atomic.Bool
	chaos http.RoundTripper
}

func (s *switchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if s.armed.Load() {
		return s.chaos.RoundTrip(req)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestSpecdPartitionGrayFailures is the gray-failure headline e2e: a
// router fronts three in-process nodes while the chaos layer injects
// the three canonical gray failures at once —
//
//   - an asymmetric partition: n2's heartbeats stop reaching the
//     router, but the router still reaches n2, so n2 must go suspect
//     (never dead) and keep serving reads with no handoff;
//   - a slow node: every router→n3 request takes ~1s, so status polls
//     of n3's jobs must be answered from the router's cache about one
//     hedge delay in, not after the injected latency;
//   - a dying disk: n1's WAL hits ENOSPC mid-run, so n1 must flip to
//     read-only degraded mode, the router must place new work around
//     it, and healing the disk must bring it back.
//
// Through all of it every submitted job must reach StateDone with no
// job ever re-homed (attempt stays 1: nothing ran twice).
func TestSpecdPartitionGrayFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("partition e2e skipped in -short mode")
	}

	// Three nodes; n1 is durable with an injectable filesystem so its
	// disk can die mid-run.
	ffs := faultinject.NewFaultFS(nil)
	n1svc, err := service.Open(service.Config{
		Workers: 2, QueueCap: 64, DefaultParallel: 1,
		StateDir: t.TempDir(), Fsync: journal.SyncAlways,
		FS: ffs, DegradedRetryInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("open n1: %v", err)
	}
	n2svc := service.New(service.Config{Workers: 2, QueueCap: 64, DefaultParallel: 1})
	n3svc := service.New(service.Config{Workers: 2, QueueCap: 64, DefaultParallel: 1})
	svcs := map[string]*service.Service{"n1": n1svc, "n2": n2svc, "n3": n3svc}

	hosts := make(map[string]string) // host:port -> node id, for chaos Resolve
	srvs := make(map[string]*httptest.Server)
	for _, id := range []string{"n1", "n2", "n3"} {
		svc := svcs[id]
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(func() {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = svc.Shutdown(ctx)
		})
		srvs[id] = srv
		hosts[strings.TrimPrefix(srv.URL, "http://")] = id
	}
	resolve := func(host string) string { return hosts[host] }

	// The router's outbound chaos plan: n3 is slow from the router's
	// side of the network, always. Fixed seed: the fault schedule
	// replays byte-for-byte across runs.
	slowN3, err := faultinject.ParseChaosPlan("router>n3:lat=900ms..1100ms")
	if err != nil {
		t.Fatalf("chaos plan: %v", err)
	}
	const hedgeDelay = 100 * time.Millisecond
	ttl := 600 * time.Millisecond
	r, err := cluster.NewRouter(cluster.RouterConfig{
		LeaseTTL:      ttl,
		SweepInterval: 100 * time.Millisecond,
		SyncInterval:  100 * time.Millisecond,
		HedgeDelay:    hedgeDelay,
		Logf:          t.Logf,
		HTTPClient: &http.Client{
			Timeout: 3 * time.Second,
			Transport: &faultinject.ChaosTransport{
				Src:     "router",
				Resolve: resolve,
				Config:  faultinject.ChaosConfig{Seed: 42, Links: slowN3},
			},
		},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(r.Close)
	routerSrv := httptest.NewServer(r.Handler())
	t.Cleanup(routerSrv.Close)

	// Agents. n2's heartbeats go through a switchable one-way cut:
	// armed, n2>router drops every request while router>n2 still works.
	cutN2Plan, err := faultinject.ParseChaosPlan("n2>router:part")
	if err != nil {
		t.Fatalf("chaos plan: %v", err)
	}
	cutN2 := &switchTransport{chaos: &faultinject.ChaosTransport{
		Src:     "n2",
		Resolve: func(string) string { return "router" },
		Config:  faultinject.ChaosConfig{Seed: 42, Links: cutN2Plan},
	}}
	for _, id := range []string{"n1", "n2", "n3"} {
		id, svc := id, svcs[id]
		cfg := cluster.AgentConfig{
			RouterURL: routerSrv.URL, NodeID: id, Advertise: srvs[id].URL,
			TTL: ttl, Incarnation: 1,
			Load: func() cluster.LoadInfo {
				degraded, _ := svc.DegradedInfo()
				return cluster.LoadInfo{
					QueueDepth: svc.QueueDepth(),
					Running:    svc.Running(),
					Degraded:   degraded,
				}
			},
			Logf: t.Logf,
		}
		if id == "n2" {
			cfg.HTTPClient = &http.Client{Timeout: 2 * time.Second, Transport: cutN2}
		}
		a, err := cluster.StartAgent(cfg)
		if err != nil {
			t.Fatalf("agent %s: %v", id, err)
		}
		t.Cleanup(a.Close)
	}

	c := client.New(routerSrv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	waitHealth := func(ok func(service.Health) bool, what string) service.Health {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			h, err := c.Health(ctx)
			if err == nil && ok(h) {
				return h
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; last health %+v (err %v)", what, h, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitHealth(func(h service.Health) bool { return h.Members["alive"] == 3 }, "3 alive members")

	// Slow mesh jobs to be mid-flight through the faults, quick cc jobs
	// as background traffic; then top up until the suspect-to-be and the
	// slow node each own at least one job.
	var ids []string
	owner := make(map[string]string)
	submit := func(spec service.JobSpec) service.JobStatus {
		t.Helper()
		st, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if st.Node == "" {
			t.Fatalf("router did not report a placement node for %s", st.ID)
		}
		ids = append(ids, st.ID)
		owner[st.ID] = st.Node
		return st
	}
	for i := 0; i < 4; i++ {
		submit(service.JobSpec{Workload: "mesh", Controller: "fixed", FixedM: 2, Size: 10000, Seed: uint64(i + 1)})
	}
	for i := 0; i < 6; i++ {
		submit(service.JobSpec{Workload: "cc", Controller: "hybrid", Size: 300, Seed: uint64(i + 100)})
	}
	jobOn := func(node string) string {
		for _, id := range ids {
			if owner[id] == node {
				return id
			}
		}
		return ""
	}
	for extra := 0; (jobOn("n2") == "" || jobOn("n3") == "") && extra < 24; extra++ {
		submit(service.JobSpec{Workload: "cc", Controller: "hybrid", Size: 300, Seed: uint64(extra + 200)})
	}
	if jobOn("n2") == "" || jobOn("n3") == "" {
		t.Fatalf("placement never used n2 and n3: %v", owner)
	}

	// Status polls of the slow node's jobs must be bounded near the
	// hedge delay: after 100ms of silence from the owner the router
	// serves its cached status instead of waiting out the ~1s link. (A
	// read of the whole trajectory, which the cache cannot answer,
	// waits.)
	slowJob := jobOn("n3")
	var reads []time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := c.JobTail(ctx, slowJob, 0); err != nil {
			t.Fatalf("read %d of %s: %v", i, slowJob, err)
		}
		reads = append(reads, time.Since(start))
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i] < reads[j] })
	if p99 := reads[len(reads)-1]; p99 >= 700*time.Millisecond {
		t.Errorf("slow-node read p99 = %v; want < 700ms (hedge delay %v, injected floor 900ms)", p99, hedgeDelay)
	}

	// Arm the asymmetric partition: n2's lease expires, but probes keep
	// answering, so it must surface as suspect — not dead.
	cutN2.armed.Store(true)
	waitHealth(func(h service.Health) bool {
		return len(h.SuspectMembers) == 1 && h.SuspectMembers[0] == "n2"
	}, "n2 suspect")

	// A suspect owner still serves: reading its job through the router
	// must be a live proxied answer, not the cached fallback.
	resp, err := http.Get(routerSrv.URL + "/v1/jobs/" + jobOn("n2"))
	if err != nil {
		t.Fatalf("read n2 job during partition: %v", err)
	}
	var n2st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&n2st); err != nil {
		t.Fatalf("decode n2 job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Specd-Cached") != "" {
		t.Errorf("suspect read: status=%d cached=%q; want a live 200 from the suspect owner",
			resp.StatusCode, resp.Header.Get("X-Specd-Cached"))
	}
	if resp.Header.Get("X-Specd-Node") != "n2" {
		t.Errorf("suspect read served by %q, want n2", resp.Header.Get("X-Specd-Node"))
	}

	// Now the disk dies under n1: every fsync returns ENOSPC. The next
	// journal append flips n1 into read-only degraded mode.
	ffs.Fail("sync", "", faultinject.ErrNoSpace)
	if _, err := client.New(srvs["n1"].URL).Submit(ctx, service.JobSpec{
		Workload: "cc", Controller: "hybrid", Size: 300, Seed: 999,
	}); err == nil {
		t.Error("direct submit to n1 on a dead disk should be refused")
	} else {
		var he *client.HTTPError
		if !errors.As(err, &he) || he.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("direct submit to degraded n1 = %v, want a 503", err)
		}
	}

	// The router learns about the degraded journal from n1's next
	// heartbeat and routes new placements around it. With n2 suspect
	// too, the only candidate left is slow n3.
	waitMembers := func(ok func([]cluster.MemberInfo) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			resp, err := http.Get(routerSrv.URL + "/v1/cluster/members")
			var mv struct {
				Members []cluster.MemberInfo `json:"members"`
			}
			if err == nil {
				derr := json.NewDecoder(resp.Body).Decode(&mv)
				resp.Body.Close()
				if derr == nil && ok(mv.Members) {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; last members %+v", what, mv.Members)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	degradedRow := func(ms []cluster.MemberInfo, want bool) bool {
		for _, m := range ms {
			if m.ID == "n1" {
				return m.Load.Degraded == want
			}
		}
		return false
	}
	waitMembers(func(ms []cluster.MemberInfo) bool { return degradedRow(ms, true) }, "n1 reported degraded")
	for i := 0; i < 2; i++ {
		if st := submit(service.JobSpec{Workload: "cc", Controller: "hybrid", Size: 300, Seed: uint64(i + 300)}); st.Node != "n3" {
			t.Errorf("job %s placed on %s while n1 degraded and n2 suspect; want n3", st.ID, st.Node)
		}
	}

	// Heal the disk: the recovery loop reopens the journal, compaction
	// re-persists everything acknowledged, and n1 leaves degraded mode.
	ffs.Clear()
	healDeadline := time.Now().Add(20 * time.Second)
	for {
		if deg, _ := n1svc.DegradedInfo(); !deg {
			break
		}
		if time.Now().After(healDeadline) {
			t.Fatal("n1 never recovered from the healed disk")
		}
		time.Sleep(25 * time.Millisecond)
	}
	waitMembers(func(ms []cluster.MemberInfo) bool { return degradedRow(ms, false) }, "n1 healthy again")

	// Heal the partition: the next heartbeat with the same incarnation
	// must restore n2 from suspect straight to alive.
	cutN2.armed.Store(false)
	waitHealth(func(h service.Health) bool {
		return len(h.SuspectMembers) == 0 && h.Members["alive"] == 3
	}, "n2 restored to alive")

	// Every job reaches a terminal state through the router, and none
	// was ever re-homed: attempt stays 1, so nothing ran twice.
	for _, id := range ids {
		st, err := c.Wait(ctx, id, 100*time.Millisecond)
		if err != nil {
			t.Fatalf("waiting for %s: %v (last state %s)", id, err, st.State)
		}
		if st.State != service.StateDone {
			t.Errorf("job %s finished %s (%s), want done", id, st.State, st.Error)
		}
		if st.Attempt > 1 {
			t.Errorf("job %s reached attempt %d; gray failures must not re-home work", id, st.Attempt)
		}
	}

	// The router's view agrees: no member was declared dead, nothing
	// handed off, and the cache fallback actually answered for the slow
	// node.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("router metrics: %v", err)
	}
	for _, want := range []string{
		"cluster_dead_nodes_total 0",
		"cluster_handoffs_total 0",
		"specd_suspect_members 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("router metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, "specd_router_hedges_total 0\n") {
		t.Error("router never fell back to its cache despite the slow node")
	}
}
