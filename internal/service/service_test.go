package service

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// ccSpec is a small synthetic job that drains quickly.
func ccSpec(seed uint64) JobSpec {
	return JobSpec{Workload: "cc", Controller: "hybrid", Size: 200, Seed: seed, Parallel: 1}
}

func waitTerminal(t *testing.T, s *Service, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := s.Job(id)
	t.Fatalf("job %s not terminal after %v (state %s)", id, timeout, st.State)
	return JobStatus{}
}

func TestJobRunsToCompletion(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 4})
	defer s.Shutdown(context.Background())

	st, err := s.Submit(ccSpec(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitTerminal(t, s, st.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("state %s, error %q", final.State, final.Error)
	}
	if final.Committed != 200 {
		t.Errorf("committed=%d, want 200 (one per node)", final.Committed)
	}
	if final.Rounds == 0 || final.CurrentM == 0 {
		t.Errorf("missing live telemetry: %+v", final)
	}
	if !strings.Contains(final.Result, "drained") {
		t.Errorf("result %q missing drain confirmation", final.Result)
	}
	if len(final.Trajectory) != final.Rounds {
		t.Errorf("trajectory has %d points, want %d", len(final.Trajectory), final.Rounds)
	}
	var committed int64
	for _, p := range final.Trajectory {
		committed += int64(p.Committed)
	}
	if committed != final.Committed {
		t.Errorf("trajectory commits %d != counter %d", committed, final.Committed)
	}
	if final.ControllerCounters == nil {
		t.Error("hybrid controller telemetry missing")
	}
}

func TestSpecValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	cases := []JobSpec{
		{Workload: "nope", Controller: "hybrid"},
		{Workload: "cc", Controller: "nope"},
		{Workload: "cc", Controller: "fixed"},            // missing m
		{Workload: "cc", Controller: "hybrid", Rho: 1.5}, // rho out of range
		{Workload: "cc", Controller: "hybrid", Size: -3}, // bad size
		{Workload: "cc", Controller: "hybrid", Parallel: 9999},
		{Workload: "cc", Controller: "hybrid", Parallel: -2},
	}
	for _, spec := range cases {
		_, err := s.Submit(spec)
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("spec %+v: got %v, want *SpecError", spec, err)
		}
	}

	// Parallel -1 is the one negative value accepted: a GOMAXPROCS-sized
	// pool. It stays -1 in the normalised spec, so the spec a status
	// reports means the same job when submitted again (0 would take the
	// server default).
	st, err := s.Submit(JobSpec{Workload: "cc", Controller: "hybrid", Size: 200, Parallel: -1})
	if err != nil {
		t.Fatalf("parallel -1 refused: %v", err)
	}
	if st.Spec.Parallel != -1 {
		t.Errorf("parallel -1 normalised to %d, want -1", st.Spec.Parallel)
	}
	if final := waitTerminal(t, s, st.ID, 30*time.Second); final.State != StateDone {
		t.Errorf("parallel -1 job ended %s (%s), want done", final.State, final.Error)
	}
}

// TestBackpressureNoLostJobs floods a tiny queue from many goroutines:
// every submission must either be accepted (and eventually finish) or
// be rejected with ErrQueueFull — and accepted + rejected must account
// for every attempt.
func TestBackpressureNoLostJobs(t *testing.T) {
	s := New(Config{Workers: 2, QueueCap: 2})
	defer s.Shutdown(context.Background())

	const n = 32
	var mu sync.Mutex
	var acceptedIDs []string
	var rejected int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.Submit(ccSpec(uint64(i + 1)))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				acceptedIDs = append(acceptedIDs, st.ID)
			case errors.Is(err, ErrQueueFull):
				rejected++
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}(i)
	}
	wg.Wait()

	if len(acceptedIDs)+rejected != n {
		t.Fatalf("accounting broken: %d accepted + %d rejected != %d", len(acceptedIDs), rejected, n)
	}
	if len(acceptedIDs) < 2 {
		t.Fatalf("expected at least workers+queue acceptances, got %d", len(acceptedIDs))
	}
	for _, id := range acceptedIDs {
		st := waitTerminal(t, s, id, 30*time.Second)
		if st.State != StateDone {
			t.Errorf("job %s: state %s (%s)", id, st.State, st.Error)
		}
	}
	if len(s.Jobs()) != len(acceptedIDs) {
		t.Errorf("job list has %d entries, want %d", len(s.Jobs()), len(acceptedIDs))
	}
}

// TestShutdownLeavesQueuedJobQueued fills the single worker with a slow
// job plus a queued one, then shuts down: the running job must be
// canceled after a completed round, the queued job must stay queued,
// and new submissions must be refused.
func TestShutdownLeavesQueuedJobQueued(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 4})

	// A big mesh job at m=2: tens of thousands of tiny rounds (~4s
	// serially), so the shutdown reliably lands mid-run while each
	// in-flight round stays cheap to finish.
	slow := JobSpec{Workload: "mesh", Controller: "fixed", FixedM: 2, Size: 60000, Parallel: 1}
	running, err := s.Submit(slow)
	if err != nil {
		t.Fatalf("submit slow: %v", err)
	}
	queued, err := s.Submit(ccSpec(1))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	// Wait until the slow job has demonstrably made round progress.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := s.Job(running.ID)
		if st.State == StateRunning && st.Rounds >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow job never progressed: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	st, _ := s.Job(running.ID)
	if st.State != StateCanceled {
		t.Errorf("running job state %s, want canceled", st.State)
	}
	if st.Rounds == 0 || st.Launched == 0 {
		t.Errorf("canceled job lost its progress: %+v", st)
	}
	// The trajectory's last round must be fully accounted (launched ==
	// committed + aborted): the in-flight round completed.
	if n := len(st.Trajectory); n > 0 {
		last := st.Trajectory[n-1]
		if last.Launched != last.Committed+last.Aborted {
			t.Errorf("last round not fully accounted: %+v", last)
		}
	}
	qst, _ := s.Job(queued.ID)
	if qst.State != StateQueued {
		t.Errorf("queued job state %s, want queued", qst.State)
	}
	if qst.Rounds != 0 {
		t.Errorf("queued job ran %d rounds during shutdown", qst.Rounds)
	}

	if _, err := s.Submit(ccSpec(2)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after shutdown: %v, want ErrDraining", err)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

func TestVerificationFailureMarksJobFailed(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	// A one-round cap cannot drain the graph → round-cap failure path.
	st, err := s.Submit(JobSpec{Workload: "cc", Controller: "hybrid", Size: 300, MaxRounds: 1, Parallel: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitTerminal(t, s, st.ID, 10*time.Second)
	if final.State != StateFailed {
		t.Fatalf("state %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "round cap") {
		t.Errorf("error %q missing round-cap explanation", final.Error)
	}
}

func TestHistoryRingKeepsTail(t *testing.T) {
	s := New(Config{Workers: 1, HistoryCap: 8})
	defer s.Shutdown(context.Background())

	st, err := s.Submit(JobSpec{Workload: "cc", Controller: "fixed", FixedM: 4, Size: 400, Parallel: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitTerminal(t, s, st.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("state %s (%s)", final.State, final.Error)
	}
	if final.Rounds <= 8 {
		t.Fatalf("test needs >8 rounds, got %d", final.Rounds)
	}
	if len(final.Trajectory) != 8 {
		t.Fatalf("ring kept %d points, want 8", len(final.Trajectory))
	}
	// The ring must hold the *last* 8 rounds, in order.
	for i, p := range final.Trajectory {
		if want := final.Rounds - 8 + i; p.Round != want {
			t.Errorf("trajectory[%d].Round = %d, want %d", i, p.Round, want)
		}
	}
}

// TestNonFiniteSpecRefused: a NaN or infinite float in a spec is a
// *SpecError on an in-memory and on a durable service alike. Range
// checks written with < and >= let NaN through; JSON cannot encode it,
// so the job's status came back empty, and a durable service, unable to
// journal the submission, called its healthy journal degraded.
func TestNonFiniteSpecRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	fault := func(f FaultSpec) *FaultSpec { return &f }
	var specs []JobSpec
	for _, v := range []float64{nan, inf, -inf} {
		for _, sp := range []JobSpec{
			{Rho: v},
			{Degree: v},
			{Fault: fault(FaultSpec{PanicRate: v})},
			{Fault: fault(FaultSpec{ErrorRate: v})},
			{Fault: fault(FaultSpec{PoisonRate: v})},
			{Fault: fault(FaultSpec{DelayRate: v})},
		} {
			sp.Workload, sp.Controller, sp.Size = "cc", "hybrid", 200
			specs = append(specs, sp)
		}
	}
	mem := New(Config{Workers: 1})
	defer mem.Shutdown(context.Background())
	durable, err := Open(durableCfg(t.TempDir()))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer durable.Shutdown(context.Background())
	for name, s := range map[string]*Service{"in-memory": mem, "durable": durable} {
		for _, spec := range specs {
			_, err := s.Submit(spec)
			var se *SpecError
			if !errors.As(err, &se) {
				t.Errorf("%s: rho %v degree %v fault %+v: got %v, want *SpecError", name, spec.Rho, spec.Degree, spec.Fault, err)
			}
		}
		if degraded, reason := s.DegradedInfo(); degraded {
			t.Errorf("%s: degraded (%s) by specs that were never admitted", name, reason)
		}
	}
}
