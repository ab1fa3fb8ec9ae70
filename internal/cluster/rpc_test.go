package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// fakeMember answers the member API with canned bodies and records the
// deadline header of every request it sees.
type fakeMember struct {
	mu        sync.Mutex
	deadlines map[string][]string // "METHOD path" -> X-Specd-Deadline, per request
}

func (f *fakeMember) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	f.mu.Lock()
	key := req.Method + " " + req.URL.Path
	f.deadlines[key] = append(f.deadlines[key], req.Header.Get(service.DeadlineHeader))
	f.mu.Unlock()
	running := service.JobStatus{ID: "c1", State: service.StateRunning, Rounds: 3, Attempt: 1,
		Trajectory: []service.RoundPoint{{Round: 0, M: 2}}}
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
		writeJSON(w, http.StatusAccepted, service.JobStatus{ID: req.Header.Get(service.JobIDHeader), State: service.StateQueued})
	case req.URL.Path == "/v1/jobs":
		writeJSON(w, http.StatusOK, struct {
			Jobs []service.JobStatus `json:"jobs"`
		}{[]service.JobStatus{running}})
	case strings.HasPrefix(req.URL.Path, "/v1/jobs/"):
		writeJSON(w, http.StatusOK, running)
	case req.URL.Path == "/v1/cluster/handoff":
		writeJSON(w, http.StatusAccepted, running)
	case req.URL.Path == "/metrics":
		_, _ = w.Write([]byte("specd_jobs_total 1\n"))
	default:
		writeJSON(w, http.StatusOK, service.Health{Status: "ok"})
	}
}

// Every member RPC — placement, sync (list and tail), proxied read and
// cancel, list and metrics fan-out, handoff, probe — goes through the
// client, so each carries the deadline of the context it runs under.
func TestRouterMemberRPCsCarryDeadline(t *testing.T) {
	fm := &fakeMember{deadlines: make(map[string][]string)}
	srv := httptest.NewServer(fm)
	defer srv.Close()
	r, clk := testRouter(t)
	joinNode(t, r, "n1", srv.URL, 1)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, code, err := r.place(ctx, quickSpec()); err != nil || code != http.StatusAccepted {
		t.Fatalf("place: code=%d err=%v", code, err)
	}
	r.syncOnce() // GET /v1/jobs, then the running job's tail
	h := r.Handler()
	for _, target := range []string{"DELETE /v1/jobs/c1", "GET /v1/jobs/c1?tail=0", "GET /v1/jobs", "GET /metrics"} {
		method, path, _ := strings.Cut(target, " ")
		req := httptest.NewRequest(method, path, nil).WithContext(ctx)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	r.mu.Lock()
	orphan := &placement{ID: "c9", Spec: quickSpec(), Node: "gone", Attempt: 1}
	r.placements[orphan.ID] = orphan
	r.mu.Unlock()
	r.handoffJob(orphan)
	clk.advance(2 * r.cfg.LeaseTTL)
	r.sweepOnce() // n1 suspect: probed

	fm.mu.Lock()
	defer fm.mu.Unlock()
	for _, want := range []string{
		"POST /v1/jobs", "GET /v1/jobs", "GET /v1/jobs/c1", "DELETE /v1/jobs/c1",
		"GET /metrics", "POST /v1/cluster/handoff", "GET /healthz",
	} {
		if len(fm.deadlines[want]) == 0 {
			t.Errorf("%s never reached the member", want)
		}
	}
	for key, dls := range fm.deadlines {
		for _, dl := range dls {
			if ms, err := strconv.ParseInt(dl, 10, 64); err != nil || !time.UnixMilli(ms).After(time.Now()) {
				t.Errorf("%s carried deadline header %q, want a future unix-ms time", key, dl)
			}
		}
	}
}

// A placement whose member fails at the transport level is retried —
// rpcAttempts tries in all, each retry counted in specd_rpc_retries_total
// — before the router gives up on that member and tries the next.
func TestRouterPlacementRetriesTransportErrors(t *testing.T) {
	var hits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if hits.Add(1) <= rpcAttempts-1 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close() // no answer at all: a transport error
			}
			return
		}
		writeJSON(w, http.StatusAccepted, service.JobStatus{ID: req.Header.Get(service.JobIDHeader), State: service.StateQueued})
	}))
	defer flaky.Close()
	r, _ := testRouter(t)
	joinNode(t, r, "flaky", flaky.URL, 1)

	st, code, err := r.place(context.Background(), quickSpec())
	if err != nil || code != http.StatusAccepted || st.Node != "flaky" {
		t.Fatalf("place: %+v code=%d err=%v, want accepted on the third try", st, code, err)
	}
	if hits.Load() != rpcAttempts || r.rpcRetries.Load() != rpcAttempts-1 {
		t.Fatalf("member hit %d times with %d retries counted, want %d and %d",
			hits.Load(), r.rpcRetries.Load(), rpcAttempts, rpcAttempts-1)
	}

	// A member that never answers costs exactly rpcAttempts tries.
	hits.Store(-100)
	_, code, err = r.place(context.Background(), quickSpec())
	if err == nil || code != http.StatusServiceUnavailable {
		t.Fatalf("place on a dead member: code=%d err=%v, want 503", code, err)
	}
	if got := hits.Load() + 100; got != rpcAttempts {
		t.Fatalf("dead member tried %d times, want %d", got, rpcAttempts)
	}
	if r.rpcRetries.Load() != 2*(rpcAttempts-1) || r.proxyErrors.Load() != 1 {
		t.Fatalf("retries %d, proxy errors %d; want %d and 1",
			r.rpcRetries.Load(), r.proxyErrors.Load(), 2*(rpcAttempts-1))
	}
}

// A spec the node refuses (400) is the client's problem: the router
// relays the code and the node's reason, where a refusal to place (429,
// 503) would end in its own 503.
func TestRouterRelaysPlacementRefusal(t *testing.T) {
	var hits atomic.Int64
	picky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		hits.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "size too large"})
	}))
	defer picky.Close()
	r, _ := testRouter(t)
	joinNode(t, r, "picky", picky.URL, 1)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"workload":"cc","controller":"hybrid"}`)))
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding the refusal: %v (%s)", err, rec.Body)
	}
	if rec.Code != http.StatusBadRequest || body.Error != "placement refused by node: size too large" {
		t.Fatalf("refusal relayed as %d %q, want 400 with the node's reason", rec.Code, body.Error)
	}
	if hits.Load() != 1 {
		t.Fatalf("refusing member hit %d times, want 1 (an answer is not retried)", hits.Load())
	}
}

// A suspect whose /healthz answers 503 (draining) is alive: any HTTP
// answer is proof of life, and only failed probes hand its jobs off.
func TestRouterProbeCountsAnyAnswerAlive(t *testing.T) {
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, service.Health{Status: "draining"})
	}))
	defer draining.Close()
	r, clk := testRouter(t)
	joinNode(t, r, "n1", draining.URL, 1)

	clk.advance(2 * r.cfg.LeaseTTL)
	r.sweepOnce() // suspect
	clk.advance(2 * r.cfg.SuspectGrace)
	r.sweepOnce()
	if m, _ := r.members.get("n1"); m.State != StateSuspect {
		t.Fatalf("n1 state = %s while its probes answer 503, want suspect", m.State)
	}
	if n := r.deadNodes.Load(); n != 0 {
		t.Fatalf("%d members declared dead", n)
	}
}

// slowOwnerRouter serves job c1 from an owner that answers after delay
// with a points-long trajectory, beside a ring successor that does not
// know the job and counts the requests it gets, and a router that falls
// back to its cache after 20ms and caches the job's PrefixTail-point
// tail.
func slowOwnerRouter(t *testing.T, delay time.Duration, points int) (http.Handler, *Router, *atomic.Int64) {
	t.Helper()
	traj := make([]service.RoundPoint, points)
	for i := range traj {
		traj[i] = service.RoundPoint{Round: i, M: 2}
	}
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return
		}
		writeJSON(w, http.StatusOK, service.JobStatus{ID: "c1", State: service.StateDone, Trajectory: traj})
	}))
	t.Cleanup(owner.Close)
	var successorHits atomic.Int64
	successor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		successorHits.Add(1)
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
	}))
	t.Cleanup(successor.Close)

	r, _ := testRouter(t)
	r.cfg.HedgeDelay = 20 * time.Millisecond
	joinNode(t, r, "owner", owner.URL, 1)
	joinNode(t, r, "successor", successor.URL, 1)
	r.mu.Lock()
	r.placements["c1"] = &placement{ID: "c1", Spec: quickSpec(), Node: "owner", Attempt: 1,
		Last: service.JobStatus{ID: "c1", State: service.StateRunning}, Prefix: traj[points-r.cfg.PrefixTail:]}
	r.mu.Unlock()
	return r.Handler(), r, &successorHits
}

// A whole-trajectory read of a job whose owner is slower than the hedge
// delay comes back whole from the owner, not as the cached tail.
func TestRouterSlowOwnerFullReadNotTruncated(t *testing.T) {
	h, _, _ := slowOwnerRouter(t, 200*time.Millisecond, 200)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/c1", nil))
	var st service.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding: %v (%s)", err, rec.Body)
	}
	if rec.Code != http.StatusOK || rec.Header().Get("X-Specd-Cached") != "" || len(st.Trajectory) != 200 {
		t.Fatalf("full read: %d cached=%q with %d points, want a live 200 with all 200",
			rec.Code, rec.Header().Get("X-Specd-Cached"), len(st.Trajectory))
	}
}

// A tail=0 poll of the same job is still answered from the cache about
// one hedge delay in, without waiting for the slow owner, and without
// asking any other member: only the owner holds the job.
func TestRouterSlowOwnerPollServedFromCache(t *testing.T) {
	const ownerDelay = time.Second
	h, r, successorHits := slowOwnerRouter(t, ownerDelay, 200)
	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/c1?tail=0", nil))
	if took := time.Since(start); rec.Code != http.StatusOK || rec.Header().Get("X-Specd-Cached") != "1" || took >= ownerDelay/2 {
		t.Fatalf("tail=0 poll: %d cached=%q after %v, want the cached 200 well before the owner's %v",
			rec.Code, rec.Header().Get("X-Specd-Cached"), took, ownerDelay)
	}
	if n := successorHits.Load(); n != 0 {
		t.Errorf("the successor got %d requests; a status read asks only the owner", n)
	}
	// r.hedges backs specd_router_hedges_total.
	if n := r.hedges.Load(); n != 1 {
		t.Errorf("specd_router_hedges_total = %d, want 1 cache fallback", n)
	}
}
