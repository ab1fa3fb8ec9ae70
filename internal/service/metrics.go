package service

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/speculation"
)

// WriteMetrics renders the service state in Prometheus text exposition
// format (version 0.0.4): queue depth, jobs by state, cumulative
// rounds/launches/commits/aborts across all jobs, admission counters,
// and per-job conflict-ratio and current-m gauges.
//
// Totals are aggregated from the per-job records at scrape time, so a
// running job's in-flight progress is visible between rounds.
func (s *Service) WriteMetrics(w io.Writer) error {
	jobs := s.Jobs()

	byState := make(map[State]int, len(States()))
	var rounds, launched, committed, aborted, failed, poisoned int64
	var coloredRounds, colorings, fallbacks int64
	for _, j := range jobs {
		byState[j.State]++
		rounds += int64(j.Rounds)
		launched += j.Launched
		committed += j.Committed
		aborted += j.Aborted
		failed += j.Failed
		poisoned += j.Poisoned
		coloredRounds += int64(j.ColoredRounds)
		colorings += int64(j.Colorings)
		fallbacks += int64(j.Fallbacks)
	}

	var b strings.Builder
	header := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	header("specd_queue_depth", "Jobs waiting in the admission queue.", "gauge")
	fmt.Fprintf(&b, "specd_queue_depth %d\n", s.QueueDepth())

	header("specd_up", "1 while serving, 0 while draining.", "gauge")
	up := 1
	if s.Draining() {
		up = 0
	}
	fmt.Fprintf(&b, "specd_up %d\n", up)

	header("specd_jobs", "Jobs by lifecycle state.", "gauge")
	for _, st := range States() {
		fmt.Fprintf(&b, "specd_jobs{state=%q} %d\n", st, byState[st])
	}

	header("specd_jobs_submitted_total", "Jobs accepted into the queue.", "counter")
	fmt.Fprintf(&b, "specd_jobs_submitted_total %d\n", s.submitted.Load())
	header("specd_jobs_rejected_total", "Jobs rejected by admission control.", "counter")
	fmt.Fprintf(&b, "specd_jobs_rejected_total %d\n", s.rejected.Load())

	tenants := s.TenantStats()
	header("specd_tenant_queue_depth", "Queued jobs by tenant.", "gauge")
	for _, t := range tenants {
		fmt.Fprintf(&b, "specd_tenant_queue_depth{tenant=%q} %d\n", t.Name, t.Queued)
	}
	header("specd_tenant_submitted_total", "Jobs admitted by tenant.", "counter")
	for _, t := range tenants {
		fmt.Fprintf(&b, "specd_tenant_submitted_total{tenant=%q} %d\n", t.Name, t.Submitted)
	}
	header("specd_tenant_completed_total", "Jobs finished in state done by tenant.", "counter")
	for _, t := range tenants {
		fmt.Fprintf(&b, "specd_tenant_completed_total{tenant=%q} %d\n", t.Name, t.Completed)
	}
	header("specd_tenant_rejected_total", "Admission rejections by tenant and class.", "counter")
	for _, t := range tenants {
		for _, class := range []string{RejectQueue, RejectTenant, RejectQuota, RejectShed, RejectDeadline} {
			if n := t.Rejected[class]; n > 0 {
				fmt.Fprintf(&b, "specd_tenant_rejected_total{tenant=%q,class=%q} %d\n", t.Name, class, n)
			}
		}
	}

	header("specd_preemptions_total", "Barrier pauses forced by higher-priority arrivals.", "counter")
	fmt.Fprintf(&b, "specd_preemptions_total %d\n", s.Preemptions())
	level, p99, shedTotal, _ := s.BrownoutInfo()
	header("specd_brownout_level", "Highest priority class currently shed by brownout (0 = healthy).", "gauge")
	fmt.Fprintf(&b, "specd_brownout_level %d\n", level)
	header("specd_brownout_shed_total", "Submissions shed by brownout.", "counter")
	fmt.Fprintf(&b, "specd_brownout_shed_total %d\n", shedTotal)
	header("specd_queue_wait_p99_seconds", "Last evaluated queue-wait p99 (brownout window).", "gauge")
	fmt.Fprintf(&b, "specd_queue_wait_p99_seconds %s\n", formatFloat(p99))

	header("specd_rounds_total", "Executor rounds run across all jobs.", "counter")
	fmt.Fprintf(&b, "specd_rounds_total %d\n", rounds)
	header("specd_launched_total", "Speculative task attempts across all jobs.", "counter")
	fmt.Fprintf(&b, "specd_launched_total %d\n", launched)
	header("specd_commits_total", "Committed tasks across all jobs.", "counter")
	fmt.Fprintf(&b, "specd_commits_total %d\n", committed)
	header("specd_aborts_total", "Aborted task attempts across all jobs.", "counter")
	fmt.Fprintf(&b, "specd_aborts_total %d\n", aborted)
	header("specd_task_failures_total", "Panicked or errored task attempts across all jobs.", "counter")
	fmt.Fprintf(&b, "specd_task_failures_total %d\n", failed)
	header("specd_poisoned_tasks_total", "Tasks quarantined after exhausting their retry budget.", "counter")
	fmt.Fprintf(&b, "specd_poisoned_tasks_total %d\n", poisoned)
	header("specd_colored_rounds_total", "Colored (lock-free) super-rounds run across all jobs.", "counter")
	fmt.Fprintf(&b, "specd_colored_rounds_total %d\n", coloredRounds)
	header("specd_colorings_total", "Speculative-to-colored phase transitions across all jobs.", "counter")
	fmt.Fprintf(&b, "specd_colorings_total %d\n", colorings)
	header("specd_colored_fallbacks_total", "Colored-to-speculative staleness fallbacks across all jobs.", "counter")
	fmt.Fprintf(&b, "specd_colored_fallbacks_total %d\n", fallbacks)
	wakes, joins := speculation.HelperCounts()
	header("specd_pool_helper_wakes_total", "Helpers of the process's executor pool woken for a round or an async drive, read live.", "counter")
	fmt.Fprintf(&b, "specd_pool_helper_wakes_total %d\n", wakes)
	header("specd_pool_helper_joins_total", "Helpers of the process's executor pool that joined a round or an async drive in time to claim a chunk of it, read live.", "counter")
	fmt.Fprintf(&b, "specd_pool_helper_joins_total %d\n", joins)
	header("specd_inflight_jobs", "Jobs currently executing rounds.", "gauge")
	fmt.Fprintf(&b, "specd_inflight_jobs %d\n", s.Running())

	header("specd_job_conflict_ratio", "Per-job cumulative conflict ratio (aborts/launches).", "gauge")
	for _, j := range jobs {
		fmt.Fprintf(&b, "specd_job_conflict_ratio{job=%q,workload=%q,controller=%q} %s\n",
			j.ID, j.Spec.Workload, j.Spec.Controller, formatFloat(j.ConflictRatio))
	}

	header("specd_job_mean_conflict_ratio", "Per-job unweighted mean of per-round conflict ratios (r-bar).", "gauge")
	for _, j := range jobs {
		fmt.Fprintf(&b, "specd_job_mean_conflict_ratio{job=%q,workload=%q,controller=%q} %s\n",
			j.ID, j.Spec.Workload, j.Spec.Controller, formatFloat(j.MeanConflictRatio))
	}

	header("specd_job_m", "Per-job current processor allocation m.", "gauge")
	for _, j := range jobs {
		fmt.Fprintf(&b, "specd_job_m{job=%q,workload=%q,controller=%q} %d\n",
			j.ID, j.Spec.Workload, j.Spec.Controller, j.CurrentM)
	}

	jst := s.JournalStats()
	header("specd_journal_records_total", "Records appended to the write-ahead journal.", "counter")
	fmt.Fprintf(&b, "specd_journal_records_total %d\n", jst.Records)
	header("specd_journal_lazy_records_total", "Journal records (checkpoints) whose append did not wait for its fsync.", "counter")
	fmt.Fprintf(&b, "specd_journal_lazy_records_total %d\n", jst.Lazy)
	header("specd_journal_fsyncs_total", "Fsync batches issued by the journal (group commit).", "counter")
	fmt.Fprintf(&b, "specd_journal_fsyncs_total %d\n", jst.Fsyncs)
	deg, _ := s.DegradedInfo()
	header("specd_degraded", "1 while the journal is faulted and submits are refused.", "gauge")
	degVal := 0
	if deg {
		degVal = 1
	}
	fmt.Fprintf(&b, "specd_degraded %d\n", degVal)
	header("specd_degraded_seconds_total", "Total seconds spent in journal-degraded read-only mode.", "counter")
	fmt.Fprintf(&b, "specd_degraded_seconds_total %s\n", formatFloat(s.DegradedSeconds()))
	header("specd_recovered_jobs_total", "Jobs restarted from spec by crash recovery at startup.", "counter")
	fmt.Fprintf(&b, "specd_recovered_jobs_total %d\n", s.Recovered())
	header("specd_handoff_jobs_total", "Jobs accepted from dead cluster members via handoff.", "counter")
	fmt.Fprintf(&b, "specd_handoff_jobs_total %d\n", s.HandedOff())

	header("specd_uptime_seconds", "Seconds since the service started.", "gauge")
	fmt.Fprintf(&b, "specd_uptime_seconds %s\n", formatFloat(s.Uptime().Seconds()))

	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a float the way Prometheus clients expect
// (shortest round-trip representation, no exponent surprises for the
// common small values).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
