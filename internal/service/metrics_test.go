package service

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestPoolHelperCounters scrapes the process's executor pool counters,
// which are live and shared by every job: a round job at Parallel 2 wakes
// a helper at least at its first multi-chunk round, no more helpers join
// than were woken, an async job at Parallel 2 wakes its one helper once,
// for the whole drive, and a job at Parallel 1, which has no helper,
// leaves both counters where they were.
func TestPoolHelperCounters(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 4})
	defer s.Shutdown(context.Background())

	scrape := func() (wakes, joins int64) {
		t.Helper()
		var b strings.Builder
		if err := s.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, line := range strings.Split(b.String(), "\n") {
			if n, _ := fmt.Sscanf(line, "specd_pool_helper_wakes_total %d", &wakes); n == 1 {
				found++
			}
			if n, _ := fmt.Sscanf(line, "specd_pool_helper_joins_total %d", &joins); n == 1 {
				found++
			}
		}
		if found != 2 {
			t.Fatalf("metrics carry %d of the two pool helper counters:\n%s", found, b.String())
		}
		return wakes, joins
	}
	run := func(spec JobSpec) {
		t.Helper()
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if final := waitTerminal(t, s, st.ID, 30*time.Second); final.State != StateDone {
			t.Fatalf("state %s, error %q", final.State, final.Error)
		}
	}

	w0, j0 := scrape()
	spec := ccSpec(1)
	spec.Parallel = 2
	run(spec)
	wakes, joins := scrape()
	if wakes < w0+1 || joins-j0 > wakes-w0 {
		t.Fatalf("a job at Parallel 2: wakes %d -> %d, joins %d -> %d; want a wake and no more joins than wakes", w0, wakes, j0, joins)
	}
	spec = ccSpec(2)
	spec.Parallel, spec.Mode = 2, ModeAsync
	run(spec)
	w, j := scrape()
	if w != wakes+1 || j < joins || j > joins+1 {
		t.Fatalf("an async job at Parallel 2: wakes %d -> %d, joins %d -> %d; want one wake and at most one join", wakes, w, joins, j)
	}
	wakes, joins = w, j
	for _, mode := range []string{ModeRound, ModeAsync} {
		spec = ccSpec(3)
		spec.Mode = mode
		run(spec)
		if w, j := scrape(); w != wakes || j != joins {
			t.Fatalf("a Parallel 1 %s job moved the counters: wakes %d -> %d, joins %d -> %d", mode, wakes, w, joins, j)
		}
	}
}
