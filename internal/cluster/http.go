package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// Handler returns the router's HTTP API. It serves the standard specd
// job surface — clients need no cluster awareness — plus the cluster
// control plane:
//
//	POST   /v1/jobs              place a job on a member (consistent
//	                             hash, least-loaded fallback)
//	GET    /v1/jobs              fan-out list across alive members,
//	                             merged with cached rows for jobs whose
//	                             owner is down
//	GET    /v1/jobs/{id}         proxy to the owner; cached last-known
//	                             status while the owner is unreachable
//	DELETE /v1/jobs/{id}         proxy a cancel to the owner
//	GET    /metrics              aggregated cluster metrics
//	GET    /healthz              router health + membership summary
//
//	POST   /v1/cluster/renew     lease heartbeat (first call joins)
//	POST   /v1/cluster/leave     clean departure
//	GET    /v1/cluster/members   membership table
//	GET    /v1/cluster/placements placement table (debug/e2e)
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", r.handlePlace)
	mux.HandleFunc("GET /v1/jobs", r.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", r.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", r.handleCancel)
	mux.HandleFunc("POST /v1/cluster/renew", r.handleRenew)
	mux.HandleFunc("POST /v1/cluster/leave", r.handleLeave)
	mux.HandleFunc("GET /v1/cluster/members", r.handleMembers)
	mux.HandleFunc("GET /v1/cluster/placements", r.handlePlacements)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /healthz", r.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func (r *Router) handlePlace(w http.ResponseWriter, req *http.Request) {
	var spec service.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad job spec: " + err.Error()})
		return
	}
	st, code, err := r.place(req.Context(), spec)
	if err != nil {
		if code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, code, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, code, st)
}

func (r *Router) handleRenew(w http.ResponseWriter, req *http.Request) {
	var rr renewRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rr); err != nil || rr.ID == "" || rr.Addr == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad renew request"})
		return
	}
	resp, changed := r.members.renew(rr, r.cfg.LeaseTTL)
	if changed {
		r.rebuildRing()
		r.cfg.Logf("cluster: member %s joined at %s (incarnation %d)", rr.ID, rr.Addr, rr.Incarnation)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (r *Router) handleLeave(w http.ResponseWriter, req *http.Request) {
	var lr leaveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&lr); err != nil || lr.ID == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad leave request"})
		return
	}
	if r.members.leave(lr.ID, lr.Incarnation) {
		r.cfg.Logf("cluster: member %s left, handing off its jobs", lr.ID)
		r.rebuildRing()
		r.handoffNode(lr.ID)
	}
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{OK: true})
}

func (r *Router) handleMembers(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Members []MemberInfo `json:"members"`
	}{Members: r.members.view()})
}

// PlacementView is the debug row served on /v1/cluster/placements.
type PlacementView struct {
	ID        string `json:"id"`
	Node      string `json:"node"`
	Attempt   int    `json:"attempt"`
	Started   bool   `json:"started"`
	Done      bool   `json:"done"`
	Pending   bool   `json:"pending,omitempty"`
	State     string `json:"state,omitempty"`
	Rounds    int    `json:"rounds,omitempty"`
	PrefixLen int    `json:"prefix_len,omitempty"`
}

func (r *Router) handlePlacements(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	out := make([]PlacementView, 0, len(r.placements))
	for _, pl := range r.placements {
		out = append(out, PlacementView{
			ID: pl.ID, Node: pl.Node, Attempt: pl.Attempt, Started: pl.Started,
			Done: pl.Done, Pending: pl.Pending, State: string(pl.Last.State),
			Rounds: pl.Last.Rounds, PrefixLen: len(pl.Prefix),
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, struct {
		Placements []PlacementView `json:"placements"`
	}{Placements: out})
}

// handleJob proxies a status read to the job's owner, with fallbacks
// that keep pollers alive across gray failures: an unreachable owner,
// or an id the owner no longer knows (pre-handoff window), answers
// with the cached last-known status (trajectory replaced by the synced
// prefix), and so does an owner silent for hedgeDelay on a read the
// cache answers in full. A suspect owner still serves: it is reachable
// even when its heartbeats are not.
//
// Only the owner is asked: placement and handoff record the member
// that accepted the job, and no other member holds it.
func (r *Router) handleJob(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r.mu.Lock()
	pl, ok := r.placements[id]
	var node string
	if ok {
		node = pl.Node
	}
	r.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	if m, servable := r.servableMember(node); servable {
		path := "/v1/jobs/" + id
		if req.URL.RawQuery != "" {
			path += "?" + req.URL.RawQuery
		}
		if res, ok := r.proxyGet(req, m, path, r.cacheAnswers(req)); ok {
			relay(w, res.code, res.body, res.node)
			return
		}
	}
	r.serveCached(w, pl)
}

// cacheAnswers reports whether the cached status answers req in full:
// it carries at most PrefixTail trajectory points, so only a ?tail=N
// poll with N <= PrefixTail.
func (r *Router) cacheAnswers(req *http.Request) bool {
	n, err := strconv.Atoi(req.URL.Query().Get("tail"))
	return err == nil && n >= 0 && n <= r.cfg.PrefixTail
}

// memberResp is one member's answer to a proxied read.
type memberResp struct {
	code int
	body []byte
	node string
}

// proxyGet reads path from the owner and reports whether the answer is
// usable: anything but a 404, a 5xx, or a transport failure. When
// cacheOK says the cache can answer the read, it stops waiting once the
// owner has been silent for hedgeDelay, which is what bounds poll tail
// latency near that delay; otherwise it waits for the owner as long as
// the request lives. A client that hangs up is not a proxy error.
func (r *Router) proxyGet(req *http.Request, owner MemberInfo, path string, cacheOK bool) (memberResp, bool) {
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	type result struct {
		memberResp
		err error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		code, body, err := r.member(owner.Addr).Raw(ctx, http.MethodGet, path)
		done <- result{memberResp{code, body, owner.ID}, err}
	}()

	var fallback <-chan time.Time
	if delay := r.hedgeDelay(); cacheOK && delay >= 0 {
		tm := time.NewTimer(delay)
		defer tm.Stop()
		fallback = tm.C
	}
	select {
	case res := <-done:
		if res.err == nil && res.code != http.StatusNotFound && res.code < 500 {
			r.recordLatency(time.Since(start))
			return res.memberResp, true
		}
		if res.err != nil && req.Context().Err() == nil {
			r.proxyErrors.Add(1)
		}
	case <-fallback:
		r.hedges.Add(1)
	}
	return memberResp{}, false
}

// servableMember resolves a member id to its row iff it can serve
// reads: alive, or suspect (lease expired yet still answering probes).
func (r *Router) servableMember(id string) (MemberInfo, bool) {
	m, ok := r.members.get(id)
	return m, ok && (m.State == StateAlive || m.State == StateSuspect)
}

// relay writes a member's answer: a 2xx JobStatus annotated with the
// node that served it, anything else verbatim.
func relay(w http.ResponseWriter, code int, body []byte, node string) {
	w.Header().Set("X-Specd-Node", node)
	if code < 300 {
		var st service.JobStatus
		if json.Unmarshal(body, &st) == nil && st.ID != "" {
			st.Node = node
			writeJSON(w, code, st)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// serveCached answers with the router's last synced view of a job.
func (r *Router) serveCached(w http.ResponseWriter, pl *placement) {
	r.mu.Lock()
	st := pl.Last
	if st.ID == "" { // placed but never synced: synthesize a queued row
		st = service.JobStatus{ID: pl.ID, State: service.StateQueued, Spec: pl.Spec, Attempt: pl.Attempt}
	}
	st.Node = pl.Node
	st.Trajectory = append([]service.RoundPoint(nil), pl.Prefix...)
	r.mu.Unlock()
	w.Header().Set("X-Specd-Cached", "1")
	writeJSON(w, http.StatusOK, st)
}

func (r *Router) handleCancel(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r.mu.Lock()
	pl, ok := r.placements[id]
	var node string
	if ok {
		node = pl.Node
	}
	r.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	m, servable := r.servableMember(node)
	if !servable {
		writeJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: "job owner is down; cancel after handoff completes"})
		return
	}
	// A 404 reads as an unreachable owner too: during a handoff window
	// the owner of record may not know the job yet.
	code, body, err := r.member(m.Addr).Raw(req.Context(), http.MethodDelete, "/v1/jobs/"+id)
	if err != nil {
		r.proxyErrors.Add(1)
	}
	if err != nil || code == http.StatusNotFound {
		writeJSON(w, http.StatusBadGateway, errorBody{Error: "owner unreachable"})
		return
	}
	relay(w, code, body, node)
}

// handleList fans out to every servable member (suspects included:
// they still answer) and merges, adding cached rows for placements
// whose owner did not answer (so the job count never dips
// mid-failover).
func (r *Router) handleList(w http.ResponseWriter, req *http.Request) {
	seen := make(map[string]service.JobStatus)
	for _, m := range append(r.members.alive(), r.members.suspects()...) {
		jobs, err := scrape(r.member(m.Addr).Jobs)
		if err != nil {
			r.scrapeErrors.Add(1)
			continue
		}
		for _, st := range jobs {
			st.Node = m.ID
			seen[st.ID] = st
		}
	}
	r.mu.Lock()
	for id, pl := range r.placements {
		if _, ok := seen[id]; ok {
			continue
		}
		st := pl.Last
		if st.ID == "" {
			st = service.JobStatus{ID: pl.ID, State: service.StateQueued, Spec: pl.Spec, Attempt: pl.Attempt}
		}
		st.Node = pl.Node
		st.Trajectory = nil
		seen[id] = st
	}
	r.mu.Unlock()
	out := make([]service.JobStatus, 0, len(seen))
	for _, st := range seen {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].SubmittedAt.Equal(out[j].SubmittedAt) {
			return out[i].SubmittedAt.Before(out[j].SubmittedAt)
		}
		return out[i].ID < out[j].ID
	})
	writeJSON(w, http.StatusOK, struct {
		Jobs []service.JobStatus `json:"jobs"`
	}{Jobs: out})
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	var suspect []string
	for _, m := range r.members.suspects() {
		suspect = append(suspect, m.ID)
	}
	writeJSON(w, http.StatusOK, service.Health{
		Status:         "ok",
		Uptime:         r.Uptime().Seconds(),
		Role:           "router",
		Members:        r.members.counts(),
		SuspectMembers: suspect,
		Placements:     r.placementCount(),
	})
}

// handleMetrics serves the router's own counters plus a cluster-wide
// aggregation: every unlabeled scalar specd_* family scraped from the
// members is summed into a cluster_<family> series, and per-member
// liveness/load gauges are emitted alongside.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	header := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	members := r.members.view()
	header("cluster_members", "Cluster members by lease state.", "gauge")
	counts := map[string]int{}
	for _, m := range members {
		counts[m.State]++
	}
	for _, st := range []string{StateAlive, StateSuspect, StateDead, StateLeft} {
		fmt.Fprintf(&b, "cluster_members{state=%q} %d\n", st, counts[st])
	}
	header("cluster_member_up", "1 while the member's lease is current.", "gauge")
	for _, m := range members {
		up := 0
		if m.State == StateAlive {
			up = 1
		}
		fmt.Fprintf(&b, "cluster_member_up{node=%q} %d\n", m.ID, up)
	}
	header("specd_suspect_members", "Members whose lease expired but are not yet proven dead.", "gauge")
	fmt.Fprintf(&b, "specd_suspect_members %d\n", counts[StateSuspect])
	header("cluster_member_queue_depth", "Queue depth last reported by the member.", "gauge")
	for _, m := range members {
		fmt.Fprintf(&b, "cluster_member_queue_depth{node=%q} %d\n", m.ID, m.Load.QueueDepth)
	}
	header("cluster_member_running_jobs", "Running jobs last reported by the member.", "gauge")
	for _, m := range members {
		fmt.Fprintf(&b, "cluster_member_running_jobs{node=%q} %d\n", m.ID, m.Load.Running)
	}

	header("cluster_placements", "Jobs the router is tracking.", "gauge")
	fmt.Fprintf(&b, "cluster_placements %d\n", r.placementCount())
	header("cluster_placements_total", "Jobs placed since the router started.", "counter")
	fmt.Fprintf(&b, "cluster_placements_total %d\n", r.placedTotal.Load())
	header("cluster_handoffs_total", "Jobs re-homed from dead or departed members.", "counter")
	fmt.Fprintf(&b, "cluster_handoffs_total %d\n", r.handoffs.Load())
	header("cluster_dead_nodes_total", "Members declared dead by the failure detector.", "counter")
	fmt.Fprintf(&b, "cluster_dead_nodes_total %d\n", r.deadNodes.Load())
	header("cluster_proxy_errors_total", "Member requests that failed at the transport level.", "counter")
	fmt.Fprintf(&b, "cluster_proxy_errors_total %d\n", r.proxyErrors.Load())
	header("cluster_scrape_errors_total", "Failed member scrapes during fan-out.", "counter")
	fmt.Fprintf(&b, "cluster_scrape_errors_total %d\n", r.scrapeErrors.Load())
	header("specd_router_hedges_total", "Status reads served from the cache because the owner was silent for the hedge delay.", "counter")
	fmt.Fprintf(&b, "specd_router_hedges_total %d\n", r.hedges.Load())
	header("specd_rpc_retries_total", "Member RPC attempts beyond the first.", "counter")
	fmt.Fprintf(&b, "specd_rpc_retries_total %d\n", r.rpcRetries.Load())
	header("cluster_router_uptime_seconds", "Seconds since the router started.", "gauge")
	fmt.Fprintf(&b, "cluster_router_uptime_seconds %g\n", r.Uptime().Seconds())

	// Aggregate the members' own scalar families.
	sums, order := r.scrapeAggregate()
	for _, name := range order {
		header("cluster_"+name, "Sum of "+name+" across alive members.", "counter")
		fmt.Fprintf(&b, "cluster_%s %g\n", name, sums[name])
	}

	_, _ = io.WriteString(w, b.String())
}

// scrapeAggregate sums every unlabeled scalar specd_* sample across the
// alive members, returning family sums in first-seen order.
func (r *Router) scrapeAggregate() (map[string]float64, []string) {
	sums := make(map[string]float64)
	var order []string
	for _, m := range r.members.alive() {
		body, err := scrape(r.member(m.Addr).Metrics)
		if err != nil {
			r.scrapeErrors.Add(1)
			continue
		}
		sc := bufio.NewScanner(strings.NewReader(body))
		sc.Buffer(make([]byte, 1<<16), 1<<22)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			name, rest, ok := strings.Cut(line, " ")
			if !ok || !strings.HasPrefix(name, "specd_") || strings.Contains(name, "{") {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				continue
			}
			if _, seen := sums[name]; !seen {
				order = append(order, name)
			}
			sums[name] += v
		}
	}
	return sums, order
}
