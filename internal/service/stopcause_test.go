package service

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// Several stop requests can be pending on a job at once. Which one wins
// is a fixed precedence — user cancel, preemption, shutdown, deadline —
// and it is the same in every mode: a job that is both canceled and
// preempted must end canceled, not be paused, journaled and re-queued
// first.
//
// Each case holds a job at its "started" log line — claimed, running,
// preemption channel armed, drive not yet built — fires its causes, lets
// go, and checks what the first attempt became.
func TestStopCausePrecedence(t *testing.T) {
	const (
		cancel   = "cancel"
		preempt  = "preempt"
		shutdown = "shutdown"
		deadline = "deadline"
	)
	cases := []struct {
		fire   []string
		paused bool   // the attempt ends in a preemption pause
		reason string // else: canceled, for this reason
	}{
		{fire: []string{cancel}, reason: ReasonUserCancel},
		{fire: []string{preempt}, paused: true},
		{fire: []string{shutdown}, reason: ReasonShutdown},
		{fire: []string{deadline}, reason: ReasonDeadline},
		{fire: []string{cancel, preempt}, reason: ReasonUserCancel},
		{fire: []string{cancel, shutdown}, reason: ReasonUserCancel},
		{fire: []string{cancel, deadline}, reason: ReasonUserCancel},
		{fire: []string{preempt, shutdown}, paused: true},
		{fire: []string{preempt, deadline}, paused: true},
		{fire: []string{shutdown, deadline}, reason: ReasonShutdown},
	}
	for _, mode := range []string{ModeRound, ModeAsync, ModeColored} {
		for _, tc := range cases {
			t.Run(mode+"/"+strings.Join(tc.fire, "+"), func(t *testing.T) {
				var once sync.Once
				started, release := make(chan struct{}), make(chan struct{})
				s := New(Config{Workers: 1, Logf: func(format string, _ ...any) {
					if strings.Contains(format, "started:") {
						once.Do(func() {
							close(started)
							<-release
						})
					}
				}})
				// Big enough that no mode drains it before the stop is seen.
				spec := JobSpec{Workload: "stable", Controller: "hybrid", Size: 4000, Seed: 1, Mode: mode}
				fires := func(cause string) bool { return strings.Contains(strings.Join(tc.fire, "+"), cause) }
				if fires(deadline) {
					spec.MaxDuration = 1 // nanosecond: over before the drive is built
				}
				st, err := s.Submit(spec)
				if err != nil {
					t.Fatalf("submit: %v", err)
				}
				<-started
				s.mu.Lock()
				j := s.jobs[st.ID]
				s.mu.Unlock()
				if fires(cancel) {
					if _, err := s.Cancel(st.ID); err != nil {
						t.Fatalf("cancel: %v", err)
					}
				}
				if fires(preempt) && !j.requestPreempt() {
					t.Fatal("preemption already pending")
				}
				shutdownDone := make(chan error, 1)
				if fires(shutdown) {
					go func() { shutdownDone <- s.Shutdown(context.Background()) }()
					waitUntil(t, "shutdown to be signalled", func() bool {
						select {
						case <-s.stop:
							return true
						default:
							return false
						}
					})
				}
				close(release)

				if tc.paused {
					waitUntil(t, "the pause", func() bool { return s.Preemptions() == 1 })
					if got, _ := s.Job(st.ID); got.Preemptions != 1 || got.Attempt != 2 || got.State == StateCanceled && got.Reason != ReasonDeadline {
						t.Errorf("after the pause: %s (%q) attempt %d, %d preemptions; want attempt 2 after 1 preemption",
							got.State, got.Reason, got.Attempt, got.Preemptions)
					}
					s.Cancel(st.ID) // whatever the second attempt is doing
				} else {
					got := waitTerminal(t, s, st.ID, 30*time.Second)
					if got.State != StateCanceled || got.Reason != tc.reason || got.Preemptions != 0 || got.Attempt != 1 {
						t.Errorf("got %s (%q, %q) attempt %d, %d preemptions; want canceled (%q) on attempt 1, never paused",
							got.State, got.Reason, got.Error, got.Attempt, got.Preemptions, tc.reason)
					}
				}
				if !fires(shutdown) {
					go func() { shutdownDone <- s.Shutdown(context.Background()) }()
				}
				if err := <-shutdownDone; err != nil {
					t.Fatalf("shutdown: %v", err)
				}
			})
		}
	}
}
