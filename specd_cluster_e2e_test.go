package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// placementsView mirrors the router's /v1/cluster/placements payload.
type placementsView struct {
	Placements []struct {
		ID        string `json:"id"`
		Node      string `json:"node"`
		Attempt   int    `json:"attempt"`
		Started   bool   `json:"started"`
		Done      bool   `json:"done"`
		State     string `json:"state"`
		Rounds    int    `json:"rounds"`
		PrefixLen int    `json:"prefix_len"`
	} `json:"placements"`
}

func fetchPlacements(t *testing.T, routerURL string) placementsView {
	t.Helper()
	resp, err := http.Get(routerURL + "/v1/cluster/placements")
	if err != nil {
		t.Fatalf("placements: %v", err)
	}
	defer resp.Body.Close()
	var pv placementsView
	if err := json.NewDecoder(resp.Body).Decode(&pv); err != nil {
		t.Fatalf("placements decode: %v", err)
	}
	return pv
}

// TestSpecdClusterNodeKillHandoff is the cluster's headline e2e: a
// router fronts three nodes, a soak of jobs spreads across them, one
// node is SIGKILLed mid-run, and every job still reaches a terminal
// state — the victim's running jobs re-homed to survivors with a
// bumped attempt counter and their pre-crash trajectory prefix intact,
// while the router's /healthz answers 200 throughout.
func TestSpecdClusterNodeKillHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}
	bin := buildCmd(t, "specd")

	router, routerURL := startSpecd(t, bin,
		"-mode", "router", "-lease-ttl", "750ms", "-sweep-interval", "100ms",
		"-sync-interval", "100ms", "-prefix-tail", "64")
	_ = router

	nodes := make(map[string]*specdProc, 3)
	for _, id := range []string{"n1", "n2", "n3"} {
		p, _ := startSpecd(t, bin,
			"-join", routerURL, "-node-id", id, "-lease-ttl", "750ms",
			"-workers", "2", "-parallel", "1", "-history", "65536")
		p.waitLine(t, "specd: joined cluster", 20*time.Second)
		nodes[id] = p
	}

	// Router health watcher: /healthz must answer 200 for the whole run.
	healthCtx, stopHealth := context.WithCancel(context.Background())
	defer stopHealth()
	var healthFailures atomic.Int64
	healthDone := make(chan struct{})
	go func() {
		defer close(healthDone)
		for healthCtx.Err() == nil {
			req, _ := http.NewRequestWithContext(healthCtx, http.MethodGet, routerURL+"/healthz", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				if healthCtx.Err() == nil {
					healthFailures.Add(1)
				}
			} else {
				if resp.StatusCode != http.StatusOK {
					healthFailures.Add(1)
				}
				resp.Body.Close()
			}
			select {
			case <-healthCtx.Done():
			case <-time.After(25 * time.Millisecond):
			}
		}
	}()

	c := client.New(routerURL)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Six slow mesh jobs to be mid-flight at the kill, six quick cc
	// jobs as background traffic.
	var ids []string
	for i := 0; i < 6; i++ {
		st, err := c.Submit(ctx, service.JobSpec{
			Workload: "mesh", Controller: "fixed", FixedM: 2, Size: 40000, Seed: uint64(i + 1),
		})
		if err != nil {
			t.Fatalf("submit mesh %d: %v", i, err)
		}
		if st.Node == "" {
			t.Fatalf("router did not report a placement node for %s", st.ID)
		}
		ids = append(ids, st.ID)
	}
	for i := 0; i < 6; i++ {
		st, err := c.Submit(ctx, service.JobSpec{
			Workload: "cc", Controller: "hybrid", Size: 400, Seed: uint64(i + 100),
		})
		if err != nil {
			t.Fatalf("submit cc %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}

	// Pick a victim: a node with a running job that has made enough
	// progress that the router has synced a trajectory prefix for it.
	var victim string
	victimJobs := make(map[string]bool) // started jobs on the victim at kill time
	for deadline := time.Now().Add(60 * time.Second); ; {
		pv := fetchPlacements(t, routerURL)
		byNode := make(map[string][]string)
		for _, pl := range pv.Placements {
			if pl.Started && !pl.Done && pl.Rounds >= 4 && pl.PrefixLen >= 1 {
				byNode[pl.Node] = append(byNode[pl.Node], pl.ID)
			}
		}
		for n, js := range byNode {
			if len(js) > len(victimJobs) {
				victim = n
				victimJobs = make(map[string]bool)
				for _, id := range js {
					victimJobs[id] = true
				}
			}
		}
		if victim != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no node accumulated running jobs with synced prefixes:\n%+v", pv)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Logf("killing %s with %d running jobs: %v", victim, len(victimJobs), victimJobs)
	if err := nodes[victim].cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL %s: %v", victim, err)
	}

	// Every job — including the victim's — must reach a terminal state
	// through the router.
	for _, id := range ids {
		st, err := c.Wait(ctx, id, 100*time.Millisecond)
		if err != nil {
			t.Fatalf("waiting for %s: %v (last state %s)", id, err, st.State)
		}
		if st.State != service.StateDone {
			t.Errorf("job %s finished %s (%s), want done", id, st.State, st.Error)
		}
	}

	// Handed-off jobs carry attempt >= 2 and keep the pre-crash prefix
	// ahead of the rerun's tagged points.
	for id := range victimJobs {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("final status of %s: %v", id, err)
		}
		if st.Node == victim || st.Node == "" {
			t.Errorf("job %s still reported on %q, want a survivor", id, st.Node)
		}
		if st.Attempt < 2 {
			t.Errorf("handed-off job %s attempt = %d, want >= 2", id, st.Attempt)
		}
		var prefixPts, rerunPts int
		for _, p := range st.Trajectory {
			if p.Attempt == 0 {
				prefixPts++
			} else if p.Attempt >= 2 {
				rerunPts++
			}
		}
		if prefixPts == 0 || rerunPts == 0 {
			t.Errorf("job %s trajectory prefix=%d rerun=%d; want both pre-crash and rerun points",
				id, prefixPts, rerunPts)
		}
	}

	// The router observed the death and re-homed work.
	resp, err := http.Get(routerURL + "/metrics")
	if err != nil {
		t.Fatalf("router metrics: %v", err)
	}
	var metrics strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, rerr := resp.Body.Read(buf)
		metrics.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	for _, want := range []string{"cluster_dead_nodes_total 1", "cluster_handoffs_total"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("router metrics missing %q:\n%s", want, metrics.String())
		}
	}
	if !strings.Contains(metrics.String(), fmt.Sprintf("cluster_member_up{node=%q} 0", victim)) {
		t.Errorf("router metrics do not mark %s down", victim)
	}

	stopHealth()
	<-healthDone
	if n := healthFailures.Load(); n > 0 {
		t.Errorf("router /healthz failed %d times during the run; want 0", n)
	}
}

// TestSpecloadClusterDrive runs the load generator against a live
// router + two nodes, exercising the cluster client path end to end
// and the per-target latency summary.
func TestSpecloadClusterDrive(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}
	specd := buildCmd(t, "specd")
	specload := buildCmd(t, "specload")

	_, routerURL := startSpecd(t, specd,
		"-mode", "router", "-lease-ttl", "750ms", "-sweep-interval", "100ms",
		"-sync-interval", "100ms")
	for _, id := range []string{"n1", "n2"} {
		p, _ := startSpecd(t, specd,
			"-join", routerURL, "-node-id", id, "-lease-ttl", "750ms",
			"-workers", "2", "-parallel", "1")
		p.waitLine(t, "specd: joined cluster", 20*time.Second)
	}

	out, err := exec.Command(specload,
		"-addr", routerURL, "-jobs", "6", "-workload", "cc", "-size", "300",
		"-expect-reject=false").CombinedOutput()
	if err != nil {
		t.Fatalf("specload: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "6 submitted, 6 accepted, 0 rejected (429), 0 retried, 0 failed") {
		t.Errorf("unexpected specload summary:\n%s", s)
	}
	if !strings.Contains(s, "role router") {
		t.Errorf("specload did not report the router role:\n%s", s)
	}
	if !strings.Contains(s, "specload: latency") || !strings.Contains(s, "p99=") {
		t.Errorf("specload did not print latency histograms:\n%s", s)
	}
	if !strings.Contains(s, "node=n1") && !strings.Contains(s, "node=n2") {
		t.Errorf("job lines do not carry placement nodes:\n%s", s)
	}
}
