package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// perLayer lists every diagnostic metric, in the order it is printed. A
// traced run of any workload reports all of them: span, counter and
// client metrics describe that workload's traffic; the rest are direct
// probes of one layer with pinned inputs, the same in every run (see
// probes.go). None of them gates a change; README.md says which
// end-to-end metric each should move.
var perLayer = concat(
	// Where the latency of the median reference job went (ms): each
	// instant on its critical path goes to the deepest span covering it.
	each("path.%s_ms", "ms", "lower", pathParts...),
	// Where the time to a durable ack went (ms): median self time of each
	// span under client.submit.
	each("ack.%s_ms", "ms", "lower", ackParts...),
	[]metricDef{
		{Name: "trace.attributed_share", Unit: "share", Better: "higher"},
		{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
		{Name: "machine.slowness", Unit: "ratio", Better: "lower"},
		{Name: "lat_ms.tail", Unit: "ms", Better: "lower"},
		{Name: "lat_ms.tail_pct", Unit: "%", Better: "higher"},
		{Name: "gen.late_ms.p99", Unit: "ms", Better: "lower"},
		{Name: "client.poll_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "client.polls_per_job", Unit: "count", Better: "lower"},
		{Name: "service.queue_wait_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "service.queue_wait_ms.p99", Unit: "ms", Better: "lower"},
		{Name: "service.run_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "service.http_submit_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "service.http_poll_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "service.http_poll_bytes.p50", Unit: "bytes", Better: "lower"},
		{Name: "service.rejects", Unit: "count", Better: "lower"},
		{Name: "service.preemptions", Unit: "count", Better: "lower"},
		{Name: "speculation.rounds_per_job", Unit: "count", Better: "lower"},
		{Name: "speculation.abort_share", Unit: "share", Better: "lower"},
		{Name: "journal.records_per_job", Unit: "count", Better: "lower"},
		{Name: "journal.bytes_per_job", Unit: "bytes", Better: "lower"},
		{Name: "journal.group_size", Unit: "count", Better: "higher"},
		{Name: "vfs.sync_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "vfs.sync_ms_per_job", Unit: "ms", Better: "lower"},
		{Name: "vfs.write_ms_per_job", Unit: "ms", Better: "lower"},
		{Name: "cluster.place_self_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "cluster.poll_self_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "cluster.rpc_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "cluster.hop_ms", Unit: "ms", Better: "lower"},
		{Name: "cluster.hedged_share", Unit: "share", Better: "lower"},
		{Name: "cluster.retries", Unit: "count", Better: "lower"},
		{Name: "cluster.placement_skew", Unit: "ratio", Better: "lower"},
		{Name: "proc.rss_mb", Unit: "MB", Better: "lower"},
		{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
		{Name: "journal.replay_ms", Unit: "ms", Better: "lower"},
		{Name: "service.open_ms", Unit: "ms", Better: "lower"},
	},
	probeDefs,
)

var (
	pathParts = []string{"gen.late", "client.submit", "cluster.handle", "cluster.rpc", "service.http",
		"service.queue", "service.run", "vfs.write", "vfs.sync"}
	ackParts = []string{"client.submit", "cluster.handle", "cluster.rpc", "service.http", "vfs.write", "vfs.sync"}
)

func each(format, unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: fmt.Sprintf(format, n), Unit: unit, Better: better}
	}
	return out
}

func concat(lists ...[]metricDef) []metricDef {
	var out []metricDef
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// runTraced is a `-trace 1` run. It composes the deployment in-process
// and runs a third of the workload twice — hooks idle, then tracing —
// so that the difference is the cost of tracing and nothing else; then it
// probes the layers directly. Spans go to bench/out/trace.json.
func runTraced(e *env, w *workloadDef, seed uint64, seconds float64) (result, map[string]sample, error) {
	t := newTracer()
	var passes [2]*pass
	var dir string
	defer func() { os.RemoveAll(dir) }() // the traced pass's state dirs, kept until reopen has read them
	for i := range passes {
		os.RemoveAll(dir)
		dir = filepath.Join(e.work, fmt.Sprintf("%s-traced-%d", w.name, i))
		st, err := startInProcess(w, dir, t)
		if err != nil {
			return result{}, nil, err
		}
		t.on.Store(i == 1)
		passes[i], err = runPass(st, w, seed, seconds/3, t)
		t.on.Store(false)
		st.stop()
		if err != nil {
			return result{}, nil, err
		}
	}
	untraced, traced := passes[0], passes[1]

	m := make(map[string]sample)
	spanMetrics(m, t, traced)
	if base := median(collect(untraced.refJobs(), latencyMs)); base > 0 {
		m["trace.overhead_share"] = sample{median(collect(traced.refJobs(), latencyMs))/base - 1, len(traced.refJobs())}
	}
	m["machine.slowness"] = sample{traced.slowness, 1}
	cpu, rss := procStat(os.Getpid())
	m["proc.rss_mb"], m["proc.cpu_s"] = sample{rss, 1}, sample{cpu, 1}
	reopen(m, filepath.Join(dir, firstNode(w)))
	if err := probes(m, seed, filepath.Join(e.work, w.name+"-probes")); err != nil {
		return result{}, nil, err
	}

	if err := writeTrace(e, w, t.spans); err != nil {
		return result{}, nil, err
	}
	return report(perLayer, m, untraced, traced), m, nil
}

func firstNode(w *workloadDef) string {
	if w.cluster {
		return "n1"
	}
	return "node"
}

func writeTrace(e *env, w *workloadDef, spans []span) error {
	out := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "trace-"+w.name+".json"), b, 0o644)
}

// spanMetrics turns the traced pass into per-layer numbers. It first adds
// the spans only the generator can know — a root per job from due to
// finished_at, its lateness, and queue and run from the status
// timestamps — then links everything up.
func spanMetrics(m map[string]sample, t *tracer, p *pass) {
	submitSpan := make(map[string]int) // job id -> client.submit span
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == "client.submit" && s.Job != "" {
			submitSpan[s.Job] = s.ID
		}
	}
	roots := make(map[*jobRec]int)
	var measured []*jobRec
	var measureStart time.Time
	for _, r := range p.jobs {
		if r.phase == "warm" || r.err != nil {
			continue
		}
		if measureStart.IsZero() {
			measureStart = r.sent
		}
		measured = append(measured, r)
		node := r.st.Node
		if node == "" {
			node = "node"
		}
		root := t.add(span{Name: "job", Job: r.id, Start: r.due, End: *r.st.FinishedAt})
		roots[r] = root
		t.add(span{Parent: root, Name: "gen.late", Job: r.id, Start: r.due, End: r.sent})
		t.add(span{Parent: root, Name: "service.queue", Node: node, Job: r.id, Start: r.st.SubmittedAt, End: *r.st.StartedAt})
		t.add(span{Parent: root, Name: "service.run", Node: node, Job: r.id, Start: *r.st.StartedAt, End: *r.st.FinishedAt})
		if id := submitSpan[r.id]; id != 0 {
			t.spans[id-1].Parent = root
		}
	}
	spans := t.spans
	resolve(spans)
	kids := children(spans)
	jobs := float64(len(measured))

	// Critical path of the median reference job: the fifth of the jobs
	// around the latency median, averaged, so that the parts add up to it.
	ref := p.refJobs()
	sort.Slice(ref, func(i, j int) bool { return ref[i].latency() < ref[j].latency() })
	mid := ref[len(ref)*2/5 : len(ref)-len(ref)*2/5]
	parts := make(map[string]time.Duration)
	var total time.Duration
	for _, r := range mid {
		root := &spans[roots[r]-1]
		for name, d := range criticalPath(root, kids) {
			parts[name] += d
		}
		total += root.dur()
	}
	for _, name := range pathParts {
		m["path."+name+"_ms"] = sample{ms(parts[name]) / float64(len(mid)), len(mid)}
	}
	if total > 0 {
		m["trace.attributed_share"] = sample{1 - float64(parts["job"])/float64(total), len(mid)}
	}

	// Ack path: self time per span name under each measured client.submit.
	ack := make(map[string][]float64)
	for _, r := range p.costJobs() {
		self := make(map[string]time.Duration)
		var walk func(s *span)
		walk = func(s *span) {
			self[s.Name] += selfTime(s, kids[s.ID])
			for _, k := range kids[s.ID] {
				walk(k)
			}
		}
		if id := submitSpan[r.id]; id != 0 {
			walk(&spans[id-1])
		}
		for _, name := range ackParts {
			ack[name] = append(ack[name], ms(self[name]))
		}
	}
	for _, name := range ackParts {
		m["ack."+name+"_ms"] = sample{median(ack[name]), len(ack[name])}
	}

	// Per-span-name durations over the measured phases.
	var syncMs, writeMs, submitMs, pollMs, pollBytes, placeSelf, pollSelf, rpcMs, hopMs []float64
	var writeBytes float64
	routerGets := 0
	for i := range spans {
		s := &spans[i]
		if s.End.IsZero() || s.Start.Before(measureStart) {
			continue
		}
		d := ms(s.dur())
		isPoll := s.Method == "GET" && s.Job != ""
		switch {
		case s.Name == "vfs.sync":
			syncMs = append(syncMs, d)
		case s.Name == "vfs.write":
			writeMs = append(writeMs, d)
			writeBytes += float64(s.Bytes)
		case s.Name == "service.http" && s.Method == "POST":
			submitMs = append(submitMs, d)
		case s.Name == "service.http" && isPoll:
			pollMs = append(pollMs, d)
			pollBytes = append(pollBytes, float64(s.Bytes))
		case s.Name == "cluster.rpc":
			rpcMs = append(rpcMs, d)
		case s.Name == "cluster.handle" && s.Method == "POST":
			placeSelf = append(placeSelf, ms(selfTime(s, kids[s.ID])))
			inner := time.Duration(0)
			for _, rpc := range kids[s.ID] {
				for _, h := range kids[rpc.ID] {
					inner += h.dur()
				}
			}
			hopMs = append(hopMs, ms(s.dur()-inner))
		case s.Name == "cluster.handle" && isPoll:
			routerGets++
			pollSelf = append(pollSelf, ms(selfTime(s, kids[s.ID])))
		}
	}
	sum := func(xs []float64) (t float64) {
		for _, x := range xs {
			t += x
		}
		return t
	}
	m["vfs.sync_ms.p50"] = sample{median(syncMs), len(syncMs)}
	m["vfs.sync_ms_per_job"] = sample{sum(syncMs) / jobs, len(syncMs)}
	m["vfs.write_ms_per_job"] = sample{sum(writeMs) / jobs, len(writeMs)}
	m["journal.bytes_per_job"] = sample{writeBytes / jobs, len(writeMs)}
	m["service.http_submit_ms.p50"] = sample{median(submitMs), len(submitMs)}
	m["service.http_poll_ms.p50"] = sample{median(pollMs), len(pollMs)}
	m["service.http_poll_bytes.p50"] = sample{median(pollBytes), len(pollBytes)}
	m["cluster.place_self_ms.p50"] = sample{median(placeSelf), len(placeSelf)}
	m["cluster.poll_self_ms.p50"] = sample{median(pollSelf), len(pollSelf)}
	m["cluster.rpc_ms.p50"] = sample{median(rpcMs), len(rpcMs)}
	m["cluster.hop_ms"] = sample{median(hopMs), len(hopMs)}

	// From the generator and the job statuses.
	lat := sorted(collect(ref, latencyMs))
	tail := tailPercentile(len(lat))
	m["lat_ms.tail"] = sample{percentile(lat, tail), len(lat)}
	m["lat_ms.tail_pct"] = sample{tail * 100, len(lat)}
	m["gen.late_ms.p99"] = sample{p.lateP99(), len(p.measured("open", -1))}
	m["client.poll_ms.p50"] = sample{median(p.pollMs), len(p.pollMs)}
	polls, perNode := 0, make(map[string]float64)
	for _, r := range measured {
		polls += r.polls
		perNode[r.st.Node]++
	}
	m["client.polls_per_job"] = sample{float64(polls) / jobs, len(measured)}
	queue := sorted(collect(measured, func(r *jobRec) float64 { return ms(r.st.StartedAt.Sub(r.st.SubmittedAt)) }))
	m["service.queue_wait_ms.p50"] = sample{percentile(queue, 0.5), len(queue)}
	m["service.queue_wait_ms.p99"] = sample{percentile(queue, 0.99), len(queue)}
	m["service.run_ms.p50"] = sample{median(collect(ref, func(r *jobRec) float64 {
		return ms(r.st.FinishedAt.Sub(*r.st.StartedAt))
	})), len(ref)}
	most := 0.0
	for _, n := range perNode {
		if n > most {
			most = n
		}
	}
	m["cluster.placement_skew"] = sample{most / (jobs / float64(len(perNode))), len(measured)}

	// From /metrics, scraped before and after the measured phases.
	n := len(measured)
	m["service.rejects"] = sample{p.delta("specd_jobs_rejected_total"), n}
	m["service.preemptions"] = sample{p.delta("specd_preemptions_total"), n}
	m["speculation.rounds_per_job"] = sample{p.delta("specd_rounds_total") / jobs, n}
	m["speculation.abort_share"] = sample{ratio(p.delta("specd_aborts_total"), p.delta("specd_launched_total")), n}
	m["journal.records_per_job"] = sample{p.delta("specd_journal_records_total") / jobs, n}
	m["journal.group_size"] = sample{ratio(p.delta("specd_journal_records_total"), p.delta("specd_journal_fsyncs_total")), n}
	m["cluster.retries"] = sample{p.delta("specd_rpc_retries_total"), n}
	m["cluster.hedged_share"] = sample{ratio(p.delta("specd_router_hedges_total"), float64(routerGets)), routerGets}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
