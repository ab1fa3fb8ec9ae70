package service_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// startServer boots the full HTTP stack on 127.0.0.1:0 — the same
// wiring cmd/specd uses — and returns a client pointed at it.
func startServer(t *testing.T, cfg service.Config) (*service.Service, *client.Client) {
	t.Helper()
	svc := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		srv.Shutdown(ctx)
	})
	return svc, client.New("http://" + ln.Addr().String())
}

// promLine matches one Prometheus text-format sample:
// name{label="v",...} value
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$`)

// parseMetrics validates the exposition text line by line and returns
// sample → value, keyed by full name{labels}.
func parseMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]bool)
	for i, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "gauge" && f[3] != "counter") {
				t.Errorf("line %d: malformed TYPE: %q", i+1, line)
				continue
			}
			typed[f[2]] = true
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: not a valid sample: %q", i+1, line)
			continue
		}
		if !typed[m[1]] {
			t.Errorf("line %d: sample %q precedes its # TYPE", i+1, m[1])
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Errorf("line %d: bad value %q: %v", i+1, m[3], err)
			continue
		}
		samples[m[1]+m[2]] = v
	}
	return samples
}

// TestE2E drives the whole stack over HTTP: submit a mesh job and a
// synthetic cc job, poll both to completion, check that /metrics and
// /v1/jobs/{id} agree on commit counts, and verify graceful shutdown
// with a job still queued.
func TestE2E(t *testing.T) {
	svc, c := startServer(t, service.Config{Workers: 2, QueueCap: 8, DefaultParallel: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if h, err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	} else if h.Role != "standalone" {
		t.Fatalf("healthz role = %q, want standalone", h.Role)
	}

	specs := []service.JobSpec{
		{Workload: "mesh", Controller: "hybrid", Size: 800, Seed: 7},
		{Workload: "cc", Controller: "recurrence-b", Size: 400, Seed: 3},
	}
	var done []service.JobStatus
	for _, spec := range specs {
		st, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.Workload, err)
		}
		// With two workers, an idle one may claim the job before the
		// submit reply is rendered; the done check follows the Wait.
		if (st.State != service.StateQueued && st.State != service.StateRunning) || st.ID == "" {
			t.Fatalf("submit %s returned %+v", spec.Workload, st)
		}
		final, err := c.Wait(ctx, st.ID, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", st.ID, err)
		}
		if final.State != service.StateDone {
			t.Fatalf("job %s (%s): state %s, error %q", final.ID, spec.Workload, final.State, final.Error)
		}
		if final.Rounds == 0 || final.Committed == 0 || final.Result == "" {
			t.Errorf("job %s missing telemetry: %+v", final.ID, final)
		}
		if len(final.Trajectory) == 0 {
			t.Errorf("job %s has no trajectory", final.ID)
		}
		done = append(done, final)
	}

	// /metrics must agree with /v1/jobs/{id} on the commit counts.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	samples := parseMetrics(t, text)
	var wantCommits, wantAborts, wantRounds float64
	for _, st := range done {
		wantCommits += float64(st.Committed)
		wantAborts += float64(st.Aborted)
		wantRounds += float64(st.Rounds)
		key := fmt.Sprintf(`specd_job_conflict_ratio{job=%q,workload=%q,controller=%q}`,
			st.ID, st.Spec.Workload, st.Spec.Controller)
		if got, ok := samples[key]; !ok {
			t.Errorf("metrics missing %s", key)
		} else if want := st.ConflictRatio; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	if got := samples["specd_commits_total"]; got != wantCommits {
		t.Errorf("specd_commits_total = %v, jobs say %v", got, wantCommits)
	}
	if got := samples["specd_aborts_total"]; got != wantAborts {
		t.Errorf("specd_aborts_total = %v, jobs say %v", got, wantAborts)
	}
	if got := samples["specd_rounds_total"]; got != wantRounds {
		t.Errorf("specd_rounds_total = %v, jobs say %v", got, wantRounds)
	}
	if got := samples[`specd_jobs{state="done"}`]; got != 2 {
		t.Errorf(`specd_jobs{state="done"} = %v, want 2`, got)
	}
	if got := samples["specd_jobs_submitted_total"]; got != 2 {
		t.Errorf("specd_jobs_submitted_total = %v, want 2", got)
	}
	if _, ok := samples["specd_up"]; !ok {
		t.Error("metrics missing specd_up")
	}

	// Graceful shutdown with a job still queued: saturate the two
	// workers with slow jobs, queue a third, then drain. The queued job
	// must survive in state queued; the API must keep answering.
	// ~4s of tiny rounds each: slow enough that the drain lands mid-run,
	// cheap enough per round that the drain itself is instant.
	slow := service.JobSpec{Workload: "mesh", Controller: "fixed", FixedM: 2, Size: 60000}
	var slowIDs []string
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, slow)
		if err != nil {
			t.Fatalf("submit slow: %v", err)
		}
		slowIDs = append(slowIDs, st.ID)
	}
	queued, err := c.Submit(ctx, service.JobSpec{Workload: "cc", Controller: "hybrid", Size: 300})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	// Wait until both slow jobs are actually running so the third is
	// parked in the queue.
	for deadline := time.Now().Add(10 * time.Second); ; {
		running := 0
		for _, id := range slowIDs {
			if st, err := c.Job(ctx, id); err == nil && st.State == service.StateRunning {
				running++
			}
		}
		if running == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow jobs never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The HTTP server is still up (specd drains the service first): the
	// status API must answer and report the drain outcome.
	if h, err := c.Health(ctx); err == nil {
		t.Error("healthz still ok after drain, want 503")
	} else if h.Status != "draining" {
		t.Errorf("healthz body status = %q after drain, want draining", h.Status)
	}
	st, err := c.Job(ctx, queued.ID)
	if err != nil {
		t.Fatalf("job status after drain: %v", err)
	}
	if st.State != service.StateQueued {
		t.Errorf("queued job state %s after drain, want queued", st.State)
	}
	for _, id := range slowIDs {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("slow job status: %v", err)
		}
		if st.State != service.StateCanceled {
			t.Errorf("slow job %s state %s, want canceled", id, st.State)
		}
	}
	if _, err := c.Submit(ctx, specs[0]); err == nil {
		t.Error("submit accepted after drain, want 503")
	}
}

// TestE2EBackpressure floods a 1-worker, 1-slot server: some requests
// must come back 429 (client.ErrBusy), accepted ones must all finish,
// and the rejected count must show up in /metrics.
func TestE2EBackpressure(t *testing.T) {
	_, c := startServer(t, service.Config{Workers: 1, QueueCap: 1, DefaultParallel: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const n = 16
	type result struct {
		id   string
		busy bool
		err  error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			st, err := c.Submit(ctx, service.JobSpec{
				Workload: "cc", Controller: "hybrid", Size: 300, Seed: uint64(i + 1),
			})
			switch {
			case err == nil:
				results <- result{id: st.ID}
			case errors.Is(err, client.ErrBusy):
				results <- result{busy: true}
			default:
				results <- result{err: err}
			}
		}(i)
	}
	var accepted []string
	rejected := 0
	for i := 0; i < n; i++ {
		r := <-results
		switch {
		case r.err != nil:
			t.Fatalf("unexpected submit error: %v", r.err)
		case r.busy:
			rejected++
		default:
			accepted = append(accepted, r.id)
		}
	}
	if len(accepted)+rejected != n {
		t.Fatalf("accounting broken: %d + %d != %d", len(accepted), rejected, n)
	}
	if rejected == 0 {
		t.Fatal("no 429s from a 1-slot queue under 16 concurrent submits")
	}
	for _, id := range accepted {
		st, err := c.Wait(ctx, id, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State != service.StateDone {
			t.Errorf("job %s: state %s (%s)", id, st.State, st.Error)
		}
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	samples := parseMetrics(t, text)
	if got := samples["specd_jobs_rejected_total"]; got != float64(rejected) {
		t.Errorf("specd_jobs_rejected_total = %v, want %d", got, rejected)
	}
	if got := samples["specd_jobs_submitted_total"]; got != float64(len(accepted)) {
		t.Errorf("specd_jobs_submitted_total = %v, want %d", got, len(accepted))
	}
}
