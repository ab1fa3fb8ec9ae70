package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// asyncCCSpec is ccSpec run barrier-free.
func asyncCCSpec(seed uint64) JobSpec {
	sp := ccSpec(seed)
	sp.Mode = ModeAsync
	return sp
}

// TestAsyncJobRunsToCompletion: an async cc job drains end-to-end with
// a pseudo-round trajectory whose window deltas account for every
// commit.
func TestAsyncJobRunsToCompletion(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 4})
	defer s.Shutdown(context.Background())

	st, err := s.Submit(asyncCCSpec(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.Spec.Mode != ModeAsync {
		t.Fatalf("normalized mode %q, want %q", st.Spec.Mode, ModeAsync)
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
	for i, p := range final.Trajectory {
		if p.Round != i {
			t.Errorf("trajectory[%d].Round = %d, want sample index %d", i, p.Round, i)
		}
		committed += int64(p.Committed)
	}
	if committed != final.Committed {
		t.Errorf("trajectory commits %d != counter %d", committed, final.Committed)
	}
	if final.ControllerCounters == nil {
		t.Error("hybrid controller telemetry missing")
	}
}

// TestAsyncSpecValidation: async mode is gated to workloads that
// support it.
func TestAsyncSpecValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	cases := []JobSpec{
		{Workload: "mesh", Controller: "hybrid", Mode: ModeAsync}, // app workload
		{Workload: "des", Controller: "hybrid", Mode: ModeAsync},  // ordered
		{Workload: "cc", Controller: "hybrid", Mode: "turbo"},     // unknown mode
	}
	for _, spec := range cases {
		_, err := s.Submit(spec)
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("spec %+v: got %v, want *SpecError", spec, err)
		}
	}

	// Explicit round mode and async on a supporting workload both pass.
	for _, spec := range []JobSpec{
		{Workload: "mesh", Controller: "hybrid", Size: 64, Mode: ModeRound},
		{Workload: "cc", Controller: "hybrid", Size: 64, Mode: ModeAsync},
	} {
		if _, err := s.Submit(spec); err != nil {
			t.Errorf("spec %+v rejected: %v", spec, err)
		}
	}
}

// TestAsyncDeadlineCancelsSpinJob: the never-draining spin workload in
// async mode terminates at its wall-clock deadline — cancellation
// stops the workers' next claim, not a round barrier.
func TestAsyncDeadlineCancelsSpinJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	spec := spinSpec(1, 150*time.Millisecond)
	spec.Mode = ModeAsync
	start := time.Now()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateCanceled, 5*time.Second)
	fin, _ := s.Job(st.ID)
	if fin.Reason != ReasonDeadline {
		t.Fatalf("reason %q, want %q (error: %s)", fin.Reason, ReasonDeadline, fin.Error)
	}
	if !strings.Contains(fin.Error, "commits") {
		t.Errorf("error %q should report progress in commits", fin.Error)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("async deadline job took %v to terminate", elapsed)
	}
	if fin.Committed == 0 {
		t.Error("async spin job committed nothing before its deadline")
	}
}

// TestAsyncCancelRunningJob: a user cancel stops an async job promptly
// with the user-cancel reason.
func TestAsyncCancelRunningJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	spec := spinSpec(1, 30*time.Second)
	spec.Mode = ModeAsync
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning, 2*time.Second)
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitState(t, s, st.ID, StateCanceled, 5*time.Second)
	fin, _ := s.Job(st.ID)
	if fin.Reason != ReasonUserCancel {
		t.Fatalf("reason %q, want %q", fin.Reason, ReasonUserCancel)
	}
}

// TestAsyncDurableRestore: an async job's pseudo-round trajectory and
// counters survive a clean restart, with commit-count checkpoints
// (CheckpointCommits small enough to force several mid-run records).
func TestAsyncDurableRestore(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 1, QueueCap: 8, StateDir: dir,
		Fsync: journal.SyncAlways, CheckpointCommits: 32,
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	st, err := s.Submit(asyncCCSpec(3))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	want := waitTerminal(t, s, st.ID, 30*time.Second)
	if want.State != StateDone {
		t.Fatalf("state %s, error %q", want.State, want.Error)
	}
	want, _ = s.Job(st.ID)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Shutdown(context.Background())
	got, ok := s2.Job(st.ID)
	if !ok {
		t.Fatalf("async job lost across restart")
	}
	if got.State != want.State || got.Rounds != want.Rounds ||
		got.Committed != want.Committed || got.Result != want.Result {
		t.Errorf("restored %+v, want %+v", got, want)
	}
	if got.Spec.Mode != ModeAsync {
		t.Errorf("restored spec mode %q, want %q", got.Spec.Mode, ModeAsync)
	}
	if len(got.Trajectory) != len(want.Trajectory) {
		t.Errorf("trajectory %d points after restart, want %d",
			len(got.Trajectory), len(want.Trajectory))
	}
}
