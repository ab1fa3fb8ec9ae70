package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// stableSpec is the stable-conflict workload run in colored mode — the
// configuration where the colored drive runs lock-free from the first
// super-round.
func stableSpec(seed uint64) JobSpec {
	return JobSpec{Workload: "stable", Controller: "hybrid", Size: 200,
		Seed: seed, Parallel: 2, Mode: ModeColored}
}

// TestColoredJobRunsToCompletion: a colored stable job drains
// end-to-end, reaches the colored phase, records colored rounds in its
// trajectory and phase counters in its status, and passes the oracle.
func TestColoredJobRunsToCompletion(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 4})
	defer s.Shutdown(context.Background())

	st, err := s.Submit(stableSpec(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.Spec.Mode != ModeColored {
		t.Fatalf("normalized mode %q, want %q", st.Spec.Mode, ModeColored)
	}
	final := waitTerminal(t, s, st.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("state %s, error %q", final.State, final.Error)
	}
	if !strings.Contains(final.Result, "chains") {
		t.Errorf("result %q missing the stable oracle detail", final.Result)
	}
	if final.ColoredRounds == 0 || final.Colorings == 0 {
		t.Fatalf("job never reached the colored phase: %+v", final)
	}
	var coloredPoints int
	var committed int64
	for _, p := range final.Trajectory {
		committed += int64(p.Committed)
		if p.Colored {
			coloredPoints++
			if p.Aborted != 0 {
				t.Errorf("colored round %d aborted %d tasks", p.Round, p.Aborted)
			}
		}
	}
	if coloredPoints == 0 {
		t.Error("no colored points in the trajectory")
	}
	if committed != final.Committed {
		t.Errorf("trajectory commits %d != counter %d", committed, final.Committed)
	}

	// The phase counters surface in /metrics.
	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	m := b.String()
	for _, want := range []string{
		"specd_colored_rounds_total", "specd_colorings_total", "specd_colored_fallbacks_total",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	if strings.Contains(m, "specd_colored_rounds_total 0\n") {
		t.Error("specd_colored_rounds_total still zero after a colored job")
	}
}

// TestColoredSpecValidation: colored mode is gated to workloads with
// colored support, and unknown modes still fail.
func TestColoredSpecValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	for _, spec := range []JobSpec{
		{Workload: "boruvka", Controller: "hybrid", Mode: ModeColored}, // unkeyed tasks
		{Workload: "des", Controller: "hybrid", Mode: ModeColored},     // ordered
		{Workload: "spin", Controller: "hybrid", Mode: ModeColored},    // async-only
	} {
		_, err := s.Submit(spec)
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("spec %+v: got %v, want *SpecError", spec, err)
		}
	}
	for _, wl := range []string{"stable", "cc", "mesh", "cluster"} {
		if _, err := s.Submit(JobSpec{Workload: wl, Controller: "hybrid", Size: 64, Mode: ModeColored}); err != nil {
			t.Errorf("colored %s rejected: %v", wl, err)
		}
	}
}

// TestColoredCancelRunningJob: a user cancel stops a colored job at the
// next round boundary with the user-cancel reason.
func TestColoredCancelRunningJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	sp := stableSpec(1)
	sp.Size = 2000
	st, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning, 2*time.Second)
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitState(t, s, st.ID, StateCanceled, 10*time.Second)
	fin, _ := s.Job(st.ID)
	if fin.Reason != ReasonUserCancel {
		t.Fatalf("reason %q, want %q", fin.Reason, ReasonUserCancel)
	}
}
