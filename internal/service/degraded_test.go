package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
)

// A journal disk fault mid-flight must flip the service into read-only
// degraded mode: in-flight jobs finish, new submits are refused with
// 503 + Retry-After, /healthz reports the reason, and healing the disk
// brings the service back automatically — with everything that was ever
// acknowledged re-persisted by the post-heal compaction.
func TestDegradedModeOnJournalFault(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(nil)
	// One worker: while the slow job holds it, the submit that hits the
	// dead disk stays queued until its journal append fails and is
	// withdrawn. With a free worker the job can be claimed — and a 120-node
	// job even finished — inside that window (submit's documented
	// claimed-before-refused race), which is not what this test is about.
	s, err := Open(Config{
		Workers: 1, QueueCap: 8, StateDir: dir, Fsync: journal.SyncAlways,
		FS: ffs, DegradedRetryInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// A healthy submit before the fault, and a long job that will still
	// be running when the disk dies.
	first, err := s.Submit(ccSpec(1))
	if err != nil {
		t.Fatalf("submit before fault: %v", err)
	}
	if st := waitTerminal(t, s, first.ID, 30*time.Second); st.State != StateDone {
		t.Fatalf("pre-fault job finished %s (%s), want done", st.State, st.Error)
	}
	slow, err := s.Submit(JobSpec{
		Workload: "mesh", Controller: "fixed", FixedM: 2, Size: 20000, Seed: 3, Parallel: 1,
	})
	if err != nil {
		t.Fatalf("submit slow job: %v", err)
	}

	// The disk dies: every fsync fails. The next append flips the
	// service into degraded mode and the failing submit is refused —
	// never acknowledged-then-lost.
	ffs.Fail("sync", "", faultinject.ErrNoSpace)
	if _, err := s.Submit(ccSpec(2)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("submit on dead disk = %v, want ErrDegraded", err)
	}
	if deg, reason := s.DegradedInfo(); !deg || reason == "" {
		t.Fatalf("DegradedInfo = (%v, %q), want degraded with a reason", deg, reason)
	}
	if _, err := s.Submit(ccSpec(3)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second submit while degraded = %v, want ErrDegraded", err)
	}

	// The HTTP surface: submits 503 with Retry-After, /healthz still 200
	// (a degraded node serves reads) but reports the state.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"cc","controller":"hybrid","rho":0.25,"size":120,"seed":9}`))
	if err != nil {
		t.Fatalf("POST while degraded: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded POST answered %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	hres, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("degraded /healthz answered %d, want 200", hres.StatusCode)
	}
	if h := s.HealthStatus(); h.Status != "degraded" || !h.Degraded || h.DegradedReason == "" {
		t.Fatalf("health = %+v, want status degraded with a reason", h)
	}

	// In-flight work keeps running to completion while degraded.
	if st := waitTerminal(t, s, slow.ID, 60*time.Second); st.State != StateDone {
		t.Fatalf("in-flight job finished %s (%s), want done", st.State, st.Error)
	}

	// The disk heals: the recovery loop reopens the journal, compacts a
	// fresh snapshot (closing the acked-then-lost window), and leaves
	// degraded mode on its own.
	ffs.Clear()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if deg, _ := s.DegradedInfo(); !deg {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service never left degraded mode after the disk healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.DegradedSeconds() <= 0 {
		t.Fatalf("DegradedSeconds = %v, want > 0 after an episode", s.DegradedSeconds())
	}

	// Back to normal service.
	post, err := s.Submit(ccSpec(4))
	if err != nil {
		t.Fatalf("submit after heal: %v", err)
	}
	if st := waitTerminal(t, s, post.ID, 30*time.Second); st.State != StateDone {
		t.Fatalf("post-heal job finished %s (%s), want done", st.State, st.Error)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Restart from disk: every acknowledged job — including the one that
	// finished while the journal was failing — must be there; the
	// refused submits must not.
	s2, err := Open(Config{Workers: 1, QueueCap: 8, StateDir: dir, Fsync: journal.SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Shutdown(context.Background())
	for _, id := range []string{first.ID, slow.ID, post.ID} {
		st, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if st.State != StateDone {
			t.Fatalf("job %s restored as %s, want done", id, st.State)
		}
	}
	if got := len(s2.Jobs()); got != 3 {
		t.Fatalf("restored %d jobs, want exactly the 3 acknowledged ones", got)
	}
}
