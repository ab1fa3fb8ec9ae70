package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// These cases pin the failover rule of a client built over several
// base URLs.

// With the first target dead, every call must fail over to the live
// one and stick there for subsequent requests.
func TestClusterFailsOverFromDeadTarget(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueCap: 8, DefaultParallel: 1})
	defer svc.Shutdown(context.Background())
	live := httptest.NewServer(svc.Handler())
	defer live.Close()

	// A dead target: a server bound then closed, so dials are refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	cc := New(deadURL, live.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st, err := cc.Submit(ctx, service.JobSpec{Workload: "cc", Controller: "hybrid", Size: 150, Seed: 1, Parallel: 1})
	if err != nil {
		t.Fatalf("Submit should fail over: %v", err)
	}
	if got := cc.LastTarget(); got != live.URL {
		t.Fatalf("LastTarget = %q, want the live target %q", got, live.URL)
	}

	final, err := cc.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != service.StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}

	if h, err := cc.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("Health = %+v, %v", h, err)
	}
	if jobs, err := cc.Jobs(ctx); err != nil || len(jobs) != 1 {
		t.Fatalf("Jobs = %d rows, %v; want 1", len(jobs), err)
	}
}

// HTTP-level errors are answers, not outages: a 404 from the current
// target must come straight back instead of rotating targets.
func TestClusterDoesNotFailOverOnHTTPErrors(t *testing.T) {
	var aHits, bHits int
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aHits++
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	}))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bHits++
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	}))
	defer b.Close()

	cc := New(a.URL, b.URL)
	ctx := context.Background()
	if _, err := cc.Job(ctx, "nope"); err == nil {
		t.Fatal("expected a 404 error")
	}
	if aHits != 1 || bHits != 0 {
		t.Fatalf("hits a=%d b=%d; a 404 must not rotate targets", aHits, bHits)
	}
}

// A 503 (draining or journal-degraded front door) must rotate to the
// next target — unlike authoritative answers such as 404.
func TestClusterFailsOverOn503(t *testing.T) {
	var aHits int
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aHits++
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"service: journal degraded, refusing new work"}`, http.StatusServiceUnavailable)
	}))
	defer a.Close()
	svc := service.New(service.Config{Workers: 1, QueueCap: 8, DefaultParallel: 1})
	defer svc.Shutdown(context.Background())
	b := httptest.NewServer(svc.Handler())
	defer b.Close()

	cc := New(a.URL, b.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cc.Submit(ctx, service.JobSpec{Workload: "cc", Controller: "hybrid", Size: 150, Seed: 1, Parallel: 1})
	if err != nil {
		t.Fatalf("Submit should fail over past the 503: %v", err)
	}
	if aHits != 1 {
		t.Fatalf("degraded target hit %d times, want 1", aHits)
	}
	if got := cc.LastTarget(); got != b.URL {
		t.Fatalf("LastTarget = %q, want the healthy target %q", got, b.URL)
	}
	if st.ID == "" {
		t.Fatal("healthy target should have accepted the job")
	}
	// The rotation sticks: later requests start at the healthy target.
	if _, err := cc.Health(ctx); err != nil || aHits != 1 {
		t.Fatalf("Health after failover: err=%v, degraded target hit %d times, want 1", err, aHits)
	}
}

// A target that times out (client-side deadline) must rotate too, as
// long as the caller's own context is still live.
func TestClusterFailsOverOnTimeout(t *testing.T) {
	stall := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	defer close(stall) // before slow.Close, so the stalled handler can return
	svc := service.New(service.Config{Workers: 1, QueueCap: 8, DefaultParallel: 1})
	defer svc.Shutdown(context.Background())
	live := httptest.NewServer(svc.Handler())
	defer live.Close()

	cc := New(slow.URL, live.URL)
	cc.HTTPClient = &http.Client{Timeout: 100 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if h, err := cc.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("Health should fail over past the stalled target: %+v, %v", h, err)
	}
	if got := cc.LastTarget(); got != live.URL {
		t.Fatalf("LastTarget = %q, want the live target %q", got, live.URL)
	}
}

func TestClusterAllTargetsDown(t *testing.T) {
	a := httptest.NewServer(http.NotFoundHandler())
	aURL := a.URL
	a.Close()
	cc := New(aURL)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cc.Health(ctx); err == nil {
		t.Fatal("expected an error with every target down")
	}
}
