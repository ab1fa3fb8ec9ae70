package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// testNode is one in-process specd node behind a real HTTP server.
type testNode struct {
	svc *service.Service
	srv *httptest.Server
}

func startNode(t *testing.T, cfg service.Config) *testNode {
	t.Helper()
	svc := service.New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return &testNode{svc: svc, srv: srv}
}

// testRouter builds a router whose loops are parked (huge intervals)
// so tests drive sweepOnce/syncOnce deterministically, with a fake
// clock feeding the failure detector.
func testRouter(t *testing.T) (*Router, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r, err := NewRouter(RouterConfig{
		LeaseTTL:      time.Second,
		SweepInterval: time.Hour,
		SyncInterval:  time.Hour,
		Now:           clk.now,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(r.Close)
	return r, clk
}

func joinNode(t *testing.T, r *Router, id, addr string, inc int64) {
	t.Helper()
	resp, changed := r.members.renew(renewRequest{ID: id, Addr: addr, Incarnation: inc}, r.cfg.LeaseTTL)
	if !resp.OK {
		t.Fatalf("join %s refused: %+v", id, resp)
	}
	if changed {
		r.rebuildRing()
	}
}

func quickSpec() service.JobSpec {
	return service.JobSpec{Workload: "cc", Controller: "hybrid", Rho: 0.25, Size: 120, Seed: 7, Parallel: 1}
}

// Placement must follow the ring owner and be a pure function of the
// id and membership: replaying the same ids yields the same owners.
func TestRouterPlacementDeterministic(t *testing.T) {
	n1 := startNode(t, service.Config{Workers: 2, QueueCap: 32, DefaultParallel: 1})
	n2 := startNode(t, service.Config{Workers: 2, QueueCap: 32, DefaultParallel: 1})
	r, _ := testRouter(t)
	joinNode(t, r, "n1", n1.srv.URL, 1)
	joinNode(t, r, "n2", n2.srv.URL, 1)

	ctx := context.Background()
	placed := make(map[string]string)
	for i := 0; i < 8; i++ {
		st, code, err := r.place(ctx, quickSpec())
		if err != nil || code != http.StatusAccepted {
			t.Fatalf("place %d: code=%d err=%v", i, code, err)
		}
		if want := func() string { r.mu.Lock(); defer r.mu.Unlock(); return r.ring.lookup(st.ID) }(); st.Node != want {
			t.Errorf("job %s placed on %s, ring owner is %s", st.ID, st.Node, want)
		}
		placed[st.ID] = st.Node
	}
	// Determinism: candidates() answers identically for identical input.
	for id, node := range placed {
		for i := 0; i < 3; i++ {
			if got := r.candidates(id)[0].ID; got != node {
				t.Fatalf("candidates(%s)[0] = %s on repeat %d, want %s", id, got, i, node)
			}
		}
	}
	// Both nodes should see their placements via the router's view.
	for id, node := range placed {
		r.mu.Lock()
		pl := r.placements[id]
		r.mu.Unlock()
		if pl == nil || pl.Node != node {
			t.Fatalf("placement table missing %s on %s", id, node)
		}
	}
}

// When the ring owner refuses (here: a node that always answers 429 —
// full — or 503 — draining), the job must land on the least-loaded
// survivor instead of failing.
func TestRouterLeastLoadedFallback(t *testing.T) {
	for _, refusal := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		t.Run(strconv.Itoa(refusal), func(t *testing.T) {
			var refusals atomic.Int64
			full := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				refusals.Add(1)
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"queue full"}`, refusal)
			}))
			defer full.Close()
			n2 := startNode(t, service.Config{Workers: 2, QueueCap: 32, DefaultParallel: 1})

			r, _ := testRouter(t)
			joinNode(t, r, "full", full.URL, 1)
			joinNode(t, r, "n2", n2.srv.URL, 1)

			ctx := context.Background()
			for i := 0; i < 8; i++ {
				st, code, err := r.place(ctx, quickSpec())
				if err != nil || code != http.StatusAccepted {
					t.Fatalf("place: code=%d err=%v", code, err)
				}
				if st.Node != "n2" {
					t.Fatalf("job %s placed on %s, want fallback n2", st.ID, st.Node)
				}
			}
			if refusals.Load() == 0 {
				t.Fatal("no placement tried the refusing node first; the fallback went untested")
			}
			if got := r.rpcRetries.Load(); got != 0 {
				t.Fatalf("%d RPC retries; a refusal is an answer, not a transport error", got)
			}
		})
	}
}

// A dead node's unfinished jobs hand off to a survivor, re-running
// with a bumped attempt and the synced trajectory prefix intact.
func TestRouterHandoffOnDeath(t *testing.T) {
	// HistoryCap must exceed the job's total rounds or the ring evicts
	// the handed-off prefix before the assertion reads it.
	n1 := startNode(t, service.Config{Workers: 2, QueueCap: 32, DefaultParallel: 1, HistoryCap: 1 << 16})
	n2 := startNode(t, service.Config{Workers: 2, QueueCap: 32, DefaultParallel: 1, HistoryCap: 1 << 16})
	r, clk := testRouter(t)
	joinNode(t, r, "n1", n1.srv.URL, 1)
	joinNode(t, r, "n2", n2.srv.URL, 1)

	// A slow multi-round job so it is still running at handoff time.
	slow := service.JobSpec{Workload: "mesh", Controller: "fixed", FixedM: 2, Size: 20000, Seed: 3, Parallel: 1}
	ctx := context.Background()
	var victims []string
	for len(victims) < 1 {
		st, code, err := r.place(ctx, slow)
		if err != nil || code != http.StatusAccepted {
			t.Fatalf("place: code=%d err=%v", code, err)
		}
		if st.Node == "n1" {
			victims = append(victims, st.ID)
		}
	}
	id := victims[0]

	// Let it make progress, then sync so the router caches the prefix.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r.syncOnce()
		r.mu.Lock()
		pl := r.placements[id]
		started, rounds, prefix := pl.Started, pl.Last.Rounds, len(pl.Prefix)
		r.mu.Unlock()
		if started && rounds >= 2 && prefix >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never progressed: started=%v rounds=%d prefix=%d", id, started, rounds, prefix)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// n1 dies: its process stops answering and its lease expires while
	// n2 keeps renewing. The first sweep only suspects n1 (a probe could
	// still save it); with the server gone, probes fail, and the sweep
	// past the grace period declares it dead and hands off.
	n1.srv.Close()
	clk.advance(r.cfg.LeaseTTL / 2)
	joinNode(t, r, "n2", n2.srv.URL, 1) // renewal
	clk.advance(3 * r.cfg.LeaseTTL / 4) // n1 now past its deadline
	r.sweepOnce()                       // n1 -> suspect, first failed probe
	if m, _ := r.members.get("n1"); m.State != StateSuspect {
		t.Fatalf("n1 state = %s after first sweep, want suspect", m.State)
	}
	clk.advance(r.cfg.SuspectGrace)
	joinNode(t, r, "n2", n2.srv.URL, 1) // keep the survivor's lease fresh
	r.sweepOnce()                       // probe fails past grace -> dead -> handoff

	r.mu.Lock()
	pl := r.placements[id]
	node, attempt := pl.Node, pl.Attempt
	r.mu.Unlock()
	if node != "n2" || attempt < 2 {
		t.Fatalf("after sweep: job %s on %s attempt %d, want n2 attempt>=2", id, node, attempt)
	}

	// The survivor must run it to completion under the same id with the
	// pre-crash prefix at the front of the trajectory.
	var final service.JobStatus
	for {
		st, ok := n2.svc.JobTail(id, -1)
		if !ok {
			t.Fatalf("survivor does not know job %s", id)
		}
		if st.Terminal() {
			final = st
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal on survivor: %s", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.State != service.StateDone {
		t.Fatalf("handed-off job finished %s (%s), want done", final.State, final.Error)
	}
	if final.Attempt < 2 {
		t.Fatalf("handed-off job attempt = %d, want >= 2", final.Attempt)
	}
	var prefixPts, rerunPts int
	for _, p := range final.Trajectory {
		if p.Attempt == 0 {
			prefixPts++
		} else if p.Attempt == final.Attempt {
			rerunPts++
		}
	}
	if prefixPts == 0 || rerunPts == 0 {
		t.Fatalf("trajectory should mix pre-crash prefix and rerun points, got prefix=%d rerun=%d", prefixPts, rerunPts)
	}
}

// While a job's owner is down, the router serves the cached last-known
// status instead of erroring, so pollers ride through the failover.
func TestRouterServesCachedStatusWhileOwnerDown(t *testing.T) {
	n1 := startNode(t, service.Config{Workers: 2, QueueCap: 32, DefaultParallel: 1})
	r, clk := testRouter(t)
	joinNode(t, r, "n1", n1.srv.URL, 1)

	// A long-running job, so it is still live when its owner dies.
	ctx := context.Background()
	st, code, err := r.place(ctx, service.JobSpec{
		Workload: "mesh", Controller: "fixed", FixedM: 2, Size: 20000, Seed: 3, Parallel: 1,
	})
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("place: code=%d err=%v", code, err)
	}
	r.syncOnce()

	// Kill the node and its lease: the server is gone, so probes fail
	// and the sweep past the grace period declares it dead (no
	// survivors: the handoff stays pending).
	n1.srv.Close()
	clk.advance(2 * r.cfg.LeaseTTL)
	r.sweepOnce() // suspect
	clk.advance(r.cfg.SuspectGrace)
	r.sweepOnce() // dead

	rsrv := httptest.NewServer(r.Handler())
	defer rsrv.Close()
	resp, err := http.Get(rsrv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatalf("GET cached: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached status answered %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Specd-Cached") != "1" {
		t.Fatalf("expected the cached-response marker header")
	}

	r.mu.Lock()
	pending := r.placements[st.ID].Pending
	r.mu.Unlock()
	if !pending {
		t.Fatalf("placement should be pending handoff with no survivors")
	}
}

// An asymmetric partition: the node's heartbeats stop reaching the
// router, but the router can still reach the node. The member must park
// in suspect — reads keep proxying to it, its jobs are never handed off
// — and a late heartbeat restores it without any job movement.
func TestRouterAsymmetricPartitionKeepsSuspectServing(t *testing.T) {
	n1 := startNode(t, service.Config{Workers: 2, QueueCap: 32, DefaultParallel: 1})
	r, clk := testRouter(t)
	joinNode(t, r, "n1", n1.srv.URL, 1)

	ctx := context.Background()
	st, code, err := r.place(ctx, service.JobSpec{
		Workload: "mesh", Controller: "fixed", FixedM: 2, Size: 20000, Seed: 3, Parallel: 1,
	})
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("place: code=%d err=%v", code, err)
	}

	// Heartbeats stop, but the node's server stays up: probes succeed,
	// so no matter how many grace periods pass the node is never killed.
	clk.advance(2 * r.cfg.LeaseTTL)
	r.sweepOnce()
	clk.advance(2 * r.cfg.SuspectGrace)
	r.sweepOnce()
	if m, _ := r.members.get("n1"); m.State != StateSuspect {
		t.Fatalf("n1 state = %s, want suspect while probes succeed", m.State)
	}

	// Reads still reach the live owner, not the cached copy.
	rsrv := httptest.NewServer(r.Handler())
	defer rsrv.Close()
	resp, err := http.Get(rsrv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatalf("GET via router: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status answered %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Specd-Cached") == "1" {
		t.Fatal("read should proxy to the reachable suspect, not serve the cache")
	}

	r.mu.Lock()
	pl := r.placements[st.ID]
	node, pending := pl.Node, pl.Pending
	r.mu.Unlock()
	if node != "n1" || pending {
		t.Fatalf("placement moved (node=%s pending=%v); a suspect's jobs must stay put", node, pending)
	}

	// /healthz surfaces the suspect.
	hres, err := http.Get(rsrv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var health service.Health
	if err := json.NewDecoder(hres.Body).Decode(&health); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	hres.Body.Close()
	if len(health.SuspectMembers) != 1 || health.SuspectMembers[0] != "n1" {
		t.Fatalf("suspect_members = %v, want [n1]", health.SuspectMembers)
	}

	// The partition heals: the next heartbeat restores the lease.
	joinNode(t, r, "n1", n1.srv.URL, 1)
	if m, _ := r.members.get("n1"); m.State != StateAlive {
		t.Fatalf("n1 state = %s after heartbeat, want alive", m.State)
	}
}

// The gray-failure metric families must appear on the router's
// /metrics, with specd_suspect_members tracking the failure detector.
func TestRouterMetricsFamilies(t *testing.T) {
	n1 := startNode(t, service.Config{Workers: 2, QueueCap: 32, DefaultParallel: 1})
	r, clk := testRouter(t)
	joinNode(t, r, "n1", n1.srv.URL, 1)

	clk.advance(2 * r.cfg.LeaseTTL)
	r.sweepOnce() // n1 suspect

	rsrv := httptest.NewServer(r.Handler())
	defer rsrv.Close()
	resp, err := http.Get(rsrv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	body := string(raw)
	for _, want := range []string{
		"specd_suspect_members 1",
		"specd_router_hedges_total 0",
		"specd_rpc_retries_total 0",
		`cluster_members{state="suspect"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// The journal scalars — records, lazy records, fsyncs — reach the
// router's /metrics summed across members, so records/fsyncs stays a
// cluster-wide batching factor with the lazy share beside it.
func TestRouterAggregatesJournalCounters(t *testing.T) {
	r, _ := testRouter(t)
	var wantLazy, wantRecords int64
	for i, id := range []string{"n1", "n2"} {
		svc, err := service.Open(service.Config{
			Workers: 1, DefaultParallel: 1, StateDir: t.TempDir(), CheckpointEvery: 2,
		})
		if err != nil {
			t.Fatalf("open %s: %v", id, err)
		}
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(func() {
			srv.Close()
			_ = svc.Shutdown(context.Background())
		})
		joinNode(t, r, id, srv.URL, int64(i+1))
		st, err := svc.Submit(quickSpec())
		if err != nil {
			t.Fatalf("submit on %s: %v", id, err)
		}
		// Done, and the worker has let go: the finished record is journaled.
		deadline := time.Now().Add(30 * time.Second)
		for {
			got, _ := svc.JobTail(st.ID, 0)
			if got.Terminal() && svc.Running() == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job on %s never finished", id)
			}
			time.Sleep(time.Millisecond)
		}
		jst := svc.JournalStats()
		if jst.Lazy == 0 {
			t.Fatalf("%s journaled no lazy checkpoint", id)
		}
		wantLazy += jst.Lazy
		wantRecords += jst.Records
	}

	rsrv := httptest.NewServer(r.Handler())
	defer rsrv.Close()
	resp, err := http.Get(rsrv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	for _, want := range []string{
		fmt.Sprintf("cluster_specd_journal_lazy_records_total %d\n", wantLazy),
		fmt.Sprintf("cluster_specd_journal_records_total %d\n", wantRecords),
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("router metrics missing %q", want)
		}
	}
}
