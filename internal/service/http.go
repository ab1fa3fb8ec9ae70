package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs      submit a JobSpec; 202 with the queued JobStatus,
//	                     429 on queue overflow, 400 on a bad spec,
//	                     503 while draining
//	GET    /v1/jobs      list all jobs (no trajectories), in submit order
//	GET    /v1/jobs/{id} one job's full status including trajectory;
//	                     ?tail=N bounds the trajectory to the newest N
//	                     points (tail=0 omits it)
//	DELETE /v1/jobs/{id} cancel a queued or running job; 200 with its
//	                     status, 404 unknown, 409 already terminal
//	GET    /metrics      Prometheus text exposition
//	GET    /healthz      200 {"status":"ok",...} with queue depth,
//	                     in-flight jobs, poisoned-task count, and the
//	                     node's cluster identity (node_id, role,
//	                     lease_expires) / 503 {"status":"draining"}
//
//	POST   /v1/cluster/handoff
//	                     accept a job handed off from a dead cluster
//	                     member (HandoffRequest): 202 with the recovered
//	                     JobStatus, 200 if the id already exists
//	                     (idempotent redelivery), 429/503/400 as above
//
// POST /v1/jobs additionally honors an X-Specd-Job-Id request header:
// the cluster router pre-assigns cluster-wide job ids with it (see
// SubmitPlaced); a duplicate id answers 200 with the existing status.
//
// pprof is not mounted here; cmd/specd adds it opt-in.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/cluster/handoff", s.handleHandoff)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return withDeadline(mux)
}

// JobIDHeader carries a router-assigned job id on POST /v1/jobs.
const JobIDHeader = "X-Specd-Job-Id"

// RetryAfterMsHeader carries the computed retry hint with millisecond
// resolution alongside the integer-seconds Retry-After (which rounds
// up, so sub-second bucket refills would otherwise all read "1").
const RetryAfterMsHeader = "X-Specd-Retry-After-Ms"

// RejectClassHeader names the admission-rejection class on a 429
// ("queue", "tenant", "quota", "shed", or "deadline").
const RejectClassHeader = "X-Specd-Reject-Class"

// DeadlineHeader propagates a caller deadline across process hops as
// absolute unix-milliseconds. The router stamps it from its request
// context; the node refuses work whose deadline has already passed and
// bounds the rest, so a retry storm cannot pile work behind a caller
// that has long since given up.
const DeadlineHeader = "X-Specd-Deadline"

// withDeadline honors DeadlineHeader on every request: an expired
// deadline answers 504 without doing the work, a live one bounds the
// request context.
func withDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(DeadlineHeader); v != "" {
			if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
				dl := time.UnixMilli(ms)
				if !time.Now().Before(dl) {
					writeJSON(w, http.StatusGatewayTimeout,
						errorBody{Error: "deadline exceeded before processing"})
					return
				}
				ctx, cancel := context.WithDeadline(r.Context(), dl)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		next.ServeHTTP(w, r)
	})
}

// maxSpecBytes bounds POST bodies; specs are a few hundred bytes.
const maxSpecBytes = 1 << 16

// maxHandoffBytes bounds handoff bodies, which carry a trajectory
// prefix on top of the spec.
const maxHandoffBytes = 4 << 20

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

// decodeBody decodes a request body of at most limit bytes into v,
// refusing unknown fields: the one decoding every POST body gets.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := decodeBody(w, r, maxSpecBytes, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad job spec: " + err.Error()})
		return
	}
	var st JobStatus
	var err error
	if id := r.Header.Get(JobIDHeader); id != "" {
		st, err = s.SubmitPlaced(id, spec)
	} else {
		st, err = s.Submit(spec)
	}
	s.writeSubmitResult(w, st, err)
}

// setRetryAfter stamps the computed retry hint: standard Retry-After
// in whole seconds (rounded up, floor 1 — the header cannot express
// fractions) plus the millisecond-resolution RetryAfterMsHeader and the
// rejection class.
func setRetryAfter(w http.ResponseWriter, wait time.Duration, class string) {
	if wait <= 0 {
		wait = time.Second
	}
	secs := (wait + time.Second - 1) / time.Second
	w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
	ms := wait.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	w.Header().Set(RetryAfterMsHeader, strconv.FormatInt(ms, 10))
	if class != "" {
		w.Header().Set(RejectClassHeader, class)
	}
}

// writeSubmitResult maps the shared admission outcomes onto HTTP.
func (s *Service) writeSubmitResult(w http.ResponseWriter, st JobStatus, err error) {
	var specErr *SpecError
	var rej *RejectError
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrDupJob):
		writeJSON(w, http.StatusOK, st)
	case errors.As(err, &rej):
		setRetryAfter(w, rej.Wait, rej.Class)
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrQueueFull):
		setRetryAfter(w, 0, RejectQueue)
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, ErrDegraded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.As(err, &specErr):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// HandoffRequest is the wire form of a cluster job handoff (POST
// /v1/cluster/handoff): re-run the job from spec on this node under its
// cluster-wide id, at the attempt the router learned before the
// original node died, with the trajectory prefix it had synced.
type HandoffRequest struct {
	ID      string       `json:"id"`
	Spec    JobSpec      `json:"spec"`
	Attempt int          `json:"attempt"`
	Prefix  []RoundPoint `json:"prefix,omitempty"`
}

func (s *Service) handleHandoff(w http.ResponseWriter, r *http.Request) {
	var req HandoffRequest
	if err := decodeBody(w, r, maxHandoffBytes, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad handoff: " + err.Error()})
		return
	}
	st, err := s.SubmitHandoff(req)
	s.writeSubmitResult(w, st, err)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: s.Jobs()})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	tail := -1 // full trajectory by default
	if v := r.URL.Query().Get("tail"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad tail: want a non-negative integer"})
			return
		}
		tail = n
	}
	st, ok := s.JobTail(r.PathValue("id"), tail)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, st)
	case errors.Is(err, ErrNoJob):
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
	case errors.Is(err, ErrJobTerminal):
		writeJSON(w, http.StatusConflict, st)
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.WriteMetrics(w)
}

// Health is the /healthz payload, shared by nodes and the cluster
// router. Queue depth, in-flight jobs, and poisoned-task count let load
// balancers shed before the 429 cliff; journal/recovered_jobs report
// durability and last-startup recovery; node_id/role/lease_expires
// identify the process inside a cluster. The router-only fields
// (members, placements) are zero on a node.
type Health struct {
	Status        string  `json:"status"`
	Uptime        float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	InflightJobs  int64   `json:"inflight_jobs"`
	PoisonedTasks int64   `json:"poisoned_tasks"`
	Journal       bool    `json:"journal"`
	RecoveredJobs int64   `json:"recovered_jobs,omitempty"`
	HandoffJobs   int64   `json:"handoff_jobs,omitempty"`

	// Degraded mode: the journal hit a disk fault and the service is
	// read-only (in-flight jobs finish, new submits 503) until the disk
	// heals. Still 200 on /healthz — a degraded node serves reads.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`

	// Brownout: sustained overload (or degraded mode) is shedding the
	// lowest priority classes at admission. BrownoutLevel is the highest
	// priority currently shed; ShedTenants lists the configured tenants
	// whose default priority class that covers. Still 200 on /healthz —
	// a browned-out node serves everything above the shed line — but the
	// router deprioritizes it for placement.
	Brownout      bool     `json:"brownout,omitempty"`
	BrownoutLevel int      `json:"brownout_level,omitempty"`
	ShedTenants   []string `json:"shed_tenants,omitempty"`
	QueueWaitP99  float64  `json:"queue_wait_p99_seconds,omitempty"`

	// Router-only: members whose lease expired but who still answer
	// probes (e.g. under an asymmetric partition).
	SuspectMembers []string `json:"suspect_members,omitempty"`

	// Cluster identity: the node's id, its role ("standalone", "node",
	// or "router"), and — when the node holds a membership lease — the
	// lease deadline it last renewed to.
	NodeID       string     `json:"node_id,omitempty"`
	Role         string     `json:"role"`
	LeaseExpires *time.Time `json:"lease_expires,omitempty"`

	// Router-only: membership counts by state and tracked placements.
	Members    map[string]int `json:"members,omitempty"`
	Placements int            `json:"placements,omitempty"`
}

// HealthStatus assembles the current /healthz payload.
func (s *Service) HealthStatus() Health {
	nodeID, role, lease := s.clusterIdentity()
	body := Health{
		Status:        "ok",
		Uptime:        s.Uptime().Seconds(),
		QueueDepth:    s.QueueDepth(),
		InflightJobs:  s.Running(),
		PoisonedTasks: s.PoisonedTotal(),
		Journal:       s.Durable(),
		RecoveredJobs: s.Recovered(),
		HandoffJobs:   s.HandedOff(),
		NodeID:        nodeID,
		Role:          role,
		LeaseExpires:  lease,
	}
	if level, p99, _, shed := s.BrownoutInfo(); level > 0 {
		body.Brownout = true
		body.BrownoutLevel = level
		body.ShedTenants = shed
		body.QueueWaitP99 = p99
	}
	if deg, reason := s.DegradedInfo(); deg {
		body.Status = "degraded"
		body.Degraded = true
		body.DegradedReason = reason
		// Degraded mode refuses every submission, which is brownout taken
		// to its limit: report it as shedding every priority class so
		// placement treats the node accordingly.
		body.Brownout = true
		body.BrownoutLevel = MaxPriority
	}
	if s.Draining() {
		body.Status = "draining"
	}
	return body
}

// BrownedOut reports whether admission is currently shedding any
// priority class — sustained overload or degraded mode. The cluster
// agent folds it into the node's load report so the router can
// deprioritize browned-out nodes for placement.
func (s *Service) BrownedOut() bool {
	if deg, _ := s.DegradedInfo(); deg {
		return true
	}
	level, _, _, _ := s.BrownoutInfo()
	return level > 0
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := s.HealthStatus()
	if body.Status == "draining" {
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}
