// Package service is the long-running speculation service behind cmd/specd:
// a bounded job queue with backpressure, a worker pool that drains jobs by
// driving the adaptive control loop on the speculative executor, per-job
// round-history ring buffers for live telemetry, and graceful shutdown
// that finishes in-flight rounds before exiting.
//
// Layering: the service owns admission, scheduling, and observation;
// workload construction and controller construction are delegated to the
// internal/workload registry, and the loop itself — the paper's
// Algorithm 1 (M → run → Observe) — is speculation.Drive, which every
// job mode and both executors go through.
//
// With Config.StateDir set (Open), the service is durable: every job
// lifecycle transition is journaled to a write-ahead log, running jobs
// checkpoint every CheckpointEvery rounds, and startup replays
// snapshot+journal to rebuild the job table — completed jobs reappear
// with their trajectories, queued jobs re-enqueue, and jobs that were
// running when the process died restart from spec in StateRecovered
// with their checkpointed trajectory prefix preserved. Records that gate
// something wait for their fsync (submitted gates the ack, finished the
// terminal state; started and handoff likewise);
// checkpoints gate nothing and are appended lazily — in the OS before
// the drive moves on, on disk within the fsync interval — so the loop
// never stalls on the disk. The journal is one sequential stream:
// a durable later record implies every earlier checkpoint is durable
// too. See persist.go and internal/journal.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/control"
	"repro/internal/journal"
	"repro/internal/speculation"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Submission errors, mapped to HTTP statuses by the handler layer.
var (
	// ErrQueueFull signals admission backpressure (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining signals the service no longer accepts jobs (HTTP 503).
	ErrDraining = errors.New("service: shutting down")
	// ErrNoJob signals an unknown job id (HTTP 404).
	ErrNoJob = errors.New("service: no such job")
	// ErrJobTerminal signals a cancel of an already-finished job (HTTP 409).
	ErrJobTerminal = errors.New("service: job already terminal")
	// ErrDupJob signals a placed or handed-off submission whose id
	// already exists; the caller gets the existing status alongside it,
	// making redelivery idempotent (HTTP 200).
	ErrDupJob = errors.New("service: job id already exists")
	// ErrDegraded signals the journal hit a disk fault (fsync error,
	// ENOSPC) and the service is in read-only degraded mode: in-flight
	// jobs finish, reads serve, but new work is refused until the disk
	// heals and the recovery loop re-opens the journal (HTTP 503).
	ErrDegraded = errors.New("service: journal degraded, refusing new work")
)

// SpecError marks an invalid job specification (HTTP 400).
type SpecError struct{ msg string }

func (e *SpecError) Error() string { return e.msg }

func specErrf(format string, args ...any) error {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}

// State enumerates a job's lifecycle.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateRecovered State = "recovered" // restored after a crash, awaiting re-execution
	StatePaused    State = "paused"    // preempted at a barrier, queued to resume where it stopped
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled" // user cancel, shutdown, or deadline; see JobStatus.Reason
)

// Reason values distinguishing why a job ended the way it did.
const (
	ReasonUserCancel = "canceled by user"
	ReasonShutdown   = "shutdown"
	ReasonDeadline   = "deadline"
	ReasonDegraded   = "degraded" // done, but some tasks were quarantined
)

// Execution modes for JobSpec.Mode: the speculation.Drive modes under
// their wire names (see speculation.Mode for what each runs).
const (
	ModeRound   = string(speculation.ModeRound)
	ModeAsync   = string(speculation.ModeAsync)
	ModeColored = string(speculation.ModeColored)
)

// modeCap is the workload capability each mode needs.
var modeCap = map[string]workload.Capability{
	ModeRound:   0,
	ModeAsync:   workload.CapAsync,
	ModeColored: workload.CapColored,
}

// States lists every job state (metrics export them all, including
// zero-valued ones, so dashboards see stable series).
func States() []State {
	return []State{StateQueued, StateRunning, StateRecovered, StatePaused, StateDone, StateFailed, StateCanceled}
}

// JobSpec is the wire-level job description accepted by POST /v1/jobs.
// Zero values take server defaults; Parallel = -1 gives the executor the
// node's GOMAXPROCS participants instead of the server default.
type JobSpec struct {
	Workload    string     `json:"workload"`
	Controller  string     `json:"controller"`
	Rho         float64    `json:"rho,omitempty"`          // target conflict ratio (default 0.25)
	M0          int        `json:"m0,omitempty"`           // initial m (default 2)
	FixedM      int        `json:"m,omitempty"`            // processor count for "fixed"
	Size        int        `json:"size,omitempty"`         // workload size (default 1000)
	Seed        uint64     `json:"seed,omitempty"`         // PRNG seed (default 1)
	Parallel    int        `json:"parallel,omitempty"`     // executor participants, the job's worker included, every mode; 0 = server default, -1 = GOMAXPROCS
	Degree      float64    `json:"degree,omitempty"`       // avg degree for "cc" (default 16)
	MaxRounds   int        `json:"max_rounds,omitempty"`   // round cap (default server cap)
	MaxDuration Duration   `json:"max_duration,omitempty"` // wall-clock deadline, checked between rounds (0 = none)
	TaskRetries int        `json:"task_retries,omitempty"` // retry budget for failed tasks; 0 = server default, -1 = none
	Fault       *FaultSpec `json:"fault,omitempty"`        // deterministic fault injection ("cc"/"spin" only)
	// Mode selects the execution mode: "round" (default), "async"
	// (barrier-free, workloads with async support only), or "colored"
	// (declare-or-round, workloads with colored support only).
	// Empty takes the server default.
	Mode string `json:"mode,omitempty"`
	// CommitWindow fixes the async sliding-window size; 0 (default)
	// tracks the controller's m adaptively. Async mode only.
	CommitWindow int `json:"commit_window,omitempty"`
	// Tenant attributes the job to an admission tenant (default
	// "default"): token-bucket quota, queue bound, and fair-share weight
	// are per tenant. See TenantConfig.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders scheduling (1..9, higher dequeues first) and
	// drives preemption: a high-priority arrival on a saturated node
	// pauses the lowest-priority running job at its next barrier, to
	// resume where it stopped. 0 takes the tenant's default priority.
	Priority int `json:"priority,omitempty"`
}

// RoundPoint is one recorded round of a job's trajectory. For async
// jobs a point is one sliding-window sample (a pseudo-round): Round is
// the sample index and the per-outcome counts are window deltas.
type RoundPoint struct {
	Round     int     `json:"round"`
	M         int     `json:"m"`
	Launched  int     `json:"launched"`
	Committed int     `json:"committed"`
	Aborted   int     `json:"aborted"`
	Failed    int     `json:"failed,omitempty"`   // panicked / errored attempts
	Poisoned  int     `json:"poisoned,omitempty"` // retry budgets exhausted this round
	R         float64 `json:"r"`                  // conflict ratio observed this round
	// Attempt tags points recorded by a post-recovery re-execution
	// (omitted for attempt 1), so a restored trajectory distinguishes
	// the pre-crash prefix from the rerun.
	Attempt int `json:"attempt,omitempty"`
	// Colored marks a colored super-round of a mode "colored" job; M is
	// then the number of tasks the super-round launched, not a
	// controller allocation. Fallback marks the colored round that
	// tripped the staleness detector (the job reverts to speculative
	// rounds right after it).
	Colored  bool `json:"colored,omitempty"`
	Fallback bool `json:"fallback,omitempty"`
}

// JobStatus is the externally visible snapshot of a job, returned by
// GET /v1/jobs/{id} and embedded in submit responses.
type JobStatus struct {
	ID          string    `json:"id"`
	State       State     `json:"state"`
	Spec        JobSpec   `json:"spec"`
	SubmittedAt time.Time `json:"submitted_at"`
	// Node is the cluster member the job is placed on. It is filled in
	// by the router front door; a node reporting its own jobs leaves it
	// empty.
	Node       string     `json:"node,omitempty"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Attempt counts executions of this job: 1 normally, bumped each
	// time crash recovery or a cluster handoff restarts it from spec.
	Attempt int `json:"attempt,omitempty"`
	// Preemptions counts how many times a higher-priority arrival paused
	// this job at a barrier. A paused job resumes where it stopped, on
	// the same attempt — unless more jobs are paused than the node has
	// workers; then it reruns from spec on a bumped attempt.
	Preemptions int `json:"preemptions,omitempty"`

	Rounds            int     `json:"rounds"`
	CurrentM          int     `json:"current_m"`
	Pending           int     `json:"pending"`
	Launched          int64   `json:"launched"`
	Committed         int64   `json:"committed"`
	Aborted           int64   `json:"aborted"`
	Failed            int64   `json:"failed,omitempty"`    // panicked / errored task attempts
	Poisoned          int64   `json:"poisoned,omitempty"`  // tasks quarantined after exhausting retries
	ConflictRatio     float64 `json:"conflict_ratio"`      // cumulative aborts/launches
	MeanConflictRatio float64 `json:"mean_conflict_ratio"` // r̄: unweighted per-round mean

	// Colored-mode phase counters (mode "colored" jobs only): colored
	// super-rounds run, declared colorings, and colored→speculative
	// staleness fallbacks.
	ColoredRounds int `json:"colored_rounds,omitempty"`
	Colorings     int `json:"colorings,omitempty"`
	Fallbacks     int `json:"fallbacks,omitempty"`

	ControllerCounters map[string]int `json:"controller_counters,omitempty"`
	Trajectory         []RoundPoint   `json:"trajectory,omitempty"`
	Result             string         `json:"result,omitempty"`
	Error              string         `json:"error,omitempty"`
	// Reason qualifies terminal states: user cancel vs shutdown vs
	// deadline for StateCanceled, "degraded" for a done job that
	// quarantined tasks.
	Reason string `json:"reason,omitempty"`
}

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s.State == StateDone || s.State == StateFailed || s.State == StateCanceled
}

// job is the internal mutable record behind a JobStatus.
type job struct {
	mu     sync.Mutex
	status JobStatus
	hist   ring
	rSum   float64 // sum of per-round conflict ratios (attempt-local)
	// specRounds counts the speculative rounds behind rSum: colored
	// super-rounds are conflict-free by construction and excluded from
	// r̄, mirroring the controller's view.
	specRounds int
	// prevColored tracks whether the previous recorded round ran under a
	// coloring that is still in force, so Colorings counts each new one:
	// the first colored round, or a colored round right after a
	// fallback (a re-declared coloring).
	prevColored bool
	snapEntry   []byte // the encoded snapshot entry, kept once the job is terminal

	// cancelCh is closed (once) to ask a running job to stop at its
	// next round barrier; cancelReason is set under mu beforehand.
	cancelCh     chan struct{}
	cancelOnce   sync.Once
	cancelReason string

	// paused is the execution a preemption stopped, held while the job
	// waits in the scheduler; the worker that claims it next resumes it.
	paused *execution

	// preemptCh is closed (preempted set) under mu to ask the running job
	// to pause at its next barrier and yield its worker to a
	// higher-priority job. Unlike cancelCh it is re-armed whenever the
	// job is claimed, so a job can be preempted more than once.
	preemptCh chan struct{}
	preempted bool
}

// execution is one attempt of a job in progress: its controller and its
// workload mid-drain. It outlives a preemption, so a paused job resumes
// instead of rerunning from spec; how far it has got is the job status's
// Rounds and Committed.
type execution struct {
	ctrl control.Controller
	run  *workload.Run
	ran  time.Duration // running time, summed over the stretches a preemption split it into
}

// release closes an execution's workload and counts its executor's pool
// helpers into the service totals. x may be nil or not yet built.
func (s *Service) release(x *execution) {
	if x == nil || x.run == nil {
		return
	}
	snap := x.run.Stepper.Snapshot()
	s.helperWakes.Add(snap.HelperWakes)
	s.helperJoins.Add(snap.HelperJoins)
	x.run.Stepper.Close()
}

// park re-queues a preempted job in StatePaused. It waits in the
// scheduler holding its execution, and the worker that claims it next
// resumes the drive. At most Workers executions wait at once, so a
// preemption storm holds at most twice the workloads the workers run;
// past that the execution is released, and the claim reruns the job from
// spec on a fresh attempt, its trajectory prefix kept, as recovery does.
func (s *Service) park(j *job, x *execution) {
	if s.parked.Add(1) > int64(s.cfg.Workers) {
		s.parked.Add(-1)
		s.release(x)
		x = nil
	}
	j.mu.Lock()
	j.status.State = StatePaused
	j.paused = x
	j.mu.Unlock()
	s.sched.requeue(j)
}

// unparkLocked takes back a paused job's execution; nil when it holds
// none. Callers hold j.mu.
func (s *Service) unparkLocked(j *job) *execution {
	x := j.paused
	if x != nil {
		j.paused = nil
		s.parked.Add(-1)
	}
	return x
}

// requestCancel asks a running job to stop at the next round barrier.
func (j *job) requestCancel(reason string) {
	j.cancelOnce.Do(func() {
		j.mu.Lock()
		j.cancelReason = reason
		j.mu.Unlock()
		close(j.cancelCh)
	})
}

// requestPreempt asks the running job to pause at its next barrier. It
// reports whether this call initiated the preemption (false when one is
// already pending).
func (j *job) requestPreempt() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.preempted {
		return false
	}
	j.preempted = true
	close(j.preemptCh)
	return true
}

// ring is a round-history buffer keeping the last max points. It grows
// by append, so a short job holds only the points it has, and wraps once
// it holds max.
type ring struct {
	buf   []RoundPoint
	max   int
	start int
}

func (r *ring) push(p RoundPoint) {
	switch {
	case len(r.buf) < r.max:
		r.buf = append(r.buf, p)
	case r.max > 0:
		r.buf[r.start] = p
		r.start = (r.start + 1) % r.max
	}
}

func (r *ring) slice() []RoundPoint {
	out := make([]RoundPoint, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}

// tail returns the last n points (everything when n < 0, nothing when
// n == 0).
func (r *ring) tail(n int) []RoundPoint {
	out := r.slice()
	if n < 0 || n >= len(out) {
		return out
	}
	return out[len(out)-n:]
}

// record folds one executed round into the job under its lock. A nil
// counters keeps the last published controller counters: the round and
// colored loops refresh them on the checkpoint cadence and on exit, not
// every round (see runJob).
func (j *job) record(p RoundPoint, pending int, counters map[string]int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &j.status
	st.Rounds = p.Round + 1
	st.CurrentM = p.M
	st.Pending = pending
	st.Launched += int64(p.Launched)
	st.Committed += int64(p.Committed)
	st.Aborted += int64(p.Aborted)
	st.Failed += int64(p.Failed)
	st.Poisoned += int64(p.Poisoned)
	if st.Launched > 0 {
		st.ConflictRatio = float64(st.Aborted) / float64(st.Launched)
	}
	if p.Colored {
		st.ColoredRounds++
		if !j.prevColored {
			st.Colorings++
		}
		if p.Fallback {
			st.Fallbacks++
		}
	} else {
		j.rSum += p.R
		j.specRounds++
	}
	j.prevColored = p.Colored && !p.Fallback
	if j.specRounds > 0 {
		st.MeanConflictRatio = j.rSum / float64(j.specRounds)
	}
	if counters != nil {
		st.ControllerCounters = counters
	}
	j.hist.push(p)
}

// setCounters publishes a fresh controller-counter map.
func (j *job) setCounters(counters map[string]int) {
	j.mu.Lock()
	j.status.ControllerCounters = counters
	j.mu.Unlock()
}

// snapshot returns a deep-enough copy for JSON encoding, with the last
// tail trajectory points (all when tail < 0, none when tail == 0).
func (j *job) snapshot(tail int) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	if st.ControllerCounters != nil {
		cc := make(map[string]int, len(st.ControllerCounters))
		for k, v := range st.ControllerCounters {
			cc[k] = v
		}
		st.ControllerCounters = cc
	}
	if tail != 0 {
		st.Trajectory = j.hist.tail(tail)
	}
	return st
}

// cancelLocked ends the job as canceled. Callers hold j.mu.
func (j *job) cancelLocked(reason, msg string) {
	j.status.State = StateCanceled
	j.status.Reason = reason
	j.status.Error = msg
	now := time.Now()
	j.status.FinishedAt = &now
}

func (j *job) setState(s State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status.State = s
	now := time.Now()
	switch s {
	case StateRunning:
		j.status.StartedAt = &now
	case StateDone, StateFailed, StateCanceled:
		j.status.FinishedAt = &now
	}
}

// Config tunes the service. Zero values take the documented defaults.
type Config struct {
	QueueCap           int // bounded queue capacity (default 64)
	Workers            int // concurrent job runners (default 2)
	HistoryCap         int // per-job trajectory points kept, the newest; the ring grows to it (default 256)
	DefaultParallel    int // executor participants when spec.Parallel == 0 (default 2)
	MaxRounds          int // hard per-job round cap (default 1<<30)
	MaxSize            int // largest accepted spec.Size (default 1_000_000)
	DefaultTaskRetries int // retry budget when spec.TaskRetries == 0 (0 = executor default)

	// StateDir enables durability (Open only): the write-ahead journal
	// and snapshots live here. Empty = in-memory only.
	StateDir string
	// Fsync selects the journal durability policy (default journal.SyncAlways).
	Fsync journal.Policy
	// FsyncInterval is the flush period for journal.SyncInterval (default 5ms).
	FsyncInterval time.Duration
	// CheckpointEvery journals a running job's progress every K rounds
	// (default 32).
	CheckpointEvery int
	// CheckpointCommits journals a running async job's progress every K
	// commits (default 2048) — async jobs checkpoint on the absolute
	// commit counter rather than on round count.
	CheckpointCommits int
	// DefaultMode is the execution mode when spec.Mode is empty
	// (default ModeRound). A DefaultMode of ModeAsync or ModeColored
	// applies only to workloads that support it; the rest fall back to
	// rounds.
	DefaultMode string
	// CompactBytes is the floor of the compaction trigger: the job table
	// is snapshotted once live journal segments reach the larger of it
	// (default 4 MiB) and the last snapshot's size.
	CompactBytes int64
	// FS is the filesystem the journal writes through (default: the real
	// one). Fault-injection tests substitute a faultinject.FaultFS to
	// drive the degraded-mode path.
	FS vfs.FS
	// DegradedRetryInterval is how often the recovery loop re-tries the
	// journal after a disk fault flipped the service into degraded mode
	// (default 1s).
	DegradedRetryInterval time.Duration

	// Tenants holds per-tenant admission and scheduling overrides;
	// TenantDefaults applies to every tenant the list does not name.
	// Empty config means one implicit weight-1 unlimited tenant — the
	// pre-tenant single-queue behavior. See LoadTenants and the specd
	// -tenants flag.
	Tenants        []TenantConfig
	TenantDefaults TenantConfig
	// BrownoutP99 enables brownout shedding: when the scheduler's
	// queue-wait p99 exceeds this threshold for BrownoutWindows
	// consecutive windows (of BrownoutWindow dequeues each), admission
	// sheds the lowest-priority classes first, one level per bad streak.
	// 0 disables brownout.
	BrownoutP99 time.Duration
	// BrownoutWindows is the consecutive bad-window streak that
	// escalates the shed level (default 3).
	BrownoutWindows int
	// BrownoutWindow is the dequeue-sample count per brownout evaluation
	// window (default 32).
	BrownoutWindow int

	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.HistoryCap <= 0 {
		c.HistoryCap = 256
	}
	if c.DefaultParallel <= 0 {
		c.DefaultParallel = 2
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 1 << 30
	}
	if c.MaxSize <= 0 {
		c.MaxSize = 1_000_000
	}
	if c.Fsync == "" {
		c.Fsync = journal.SyncAlways
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 32
	}
	if c.CheckpointCommits <= 0 {
		c.CheckpointCommits = 2048
	}
	if c.DefaultMode == "" {
		c.DefaultMode = ModeRound
	}
	if c.CompactBytes <= 0 {
		c.CompactBytes = 4 << 20
	}
	if c.DegradedRetryInterval <= 0 {
		c.DegradedRetryInterval = time.Second
	}
	if c.BrownoutWindows <= 0 {
		c.BrownoutWindows = 3
	}
	if c.BrownoutWindow <= 0 {
		c.BrownoutWindow = 32
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Service is the long-running speculation service.
type Service struct {
	cfg   Config
	start time.Time

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for listing

	sched    *scheduler
	draining atomic.Bool
	stop     chan struct{} // closed by Shutdown; wakes idle workers
	wg       sync.WaitGroup

	nextID      atomic.Int64
	submitted   atomic.Int64
	rejected    atomic.Int64
	running     atomic.Int64 // jobs currently executing rounds
	preemptions atomic.Int64 // barrier pauses forced by higher-priority arrivals
	parked      atomic.Int64 // paused jobs holding their execution (at most Workers; see park)
	helperWakes atomic.Int64 // executor pool helpers woken, summed over finished attempts
	helperJoins atomic.Int64 // ... of which arrived in time to claim a chunk

	// runningSet tracks the jobs currently holding workers, for
	// preemption victim selection (lowest effective priority first).
	runMu      sync.Mutex
	runningSet map[*job]struct{}

	// placedMu serializes explicit-id submissions (router placements and
	// handoffs) so a duplicate delivery observes the first copy instead
	// of racing it into the queue.
	placedMu  sync.Mutex
	handedOff atomic.Int64 // jobs accepted via SubmitHandoff

	// Cluster identity reported on /healthz; see SetClusterIdentity.
	idMu         sync.Mutex
	nodeID       string
	role         string
	leaseExpires func() time.Time

	jnl        *journal.Journal // nil when StateDir is unset
	recovered  atomic.Int64     // jobs restarted from spec after a crash
	compacting atomic.Bool
	snapBytes  atomic.Int64 // size of the last snapshot: with CompactBytes, the compaction trigger
	closeOnce  sync.Once

	// Degraded mode: a journal disk fault flips the service read-only.
	// In-flight jobs finish (their records are lost until the post-heal
	// compaction re-persists them), reads keep serving, new submits are
	// refused with ErrDegraded, and the recovery goroutine periodically
	// re-opens the journal until the disk heals.
	degMu          sync.Mutex
	degraded       bool
	degradedReason string
	degradedSince  time.Time
	degradedAccum  time.Duration // time spent degraded across past episodes
	recovering     bool          // recovery goroutine is running
}

// New starts an in-memory service with cfg.Workers runner goroutines.
// Config.StateDir is ignored; use Open for durability.
func New(cfg Config) *Service {
	cfg.StateDir = ""
	s, _ := Open(cfg)
	return s
}

// Open starts a service. With cfg.StateDir set it first replays the
// state directory — rebuilding completed jobs with their trajectories,
// re-enqueueing queued jobs, and restarting crash-interrupted jobs from
// spec in StateRecovered — and then journals every subsequent lifecycle
// transition. A torn final journal record is truncated with a warning;
// corruption anywhere else fails startup.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:        cfg,
		start:      time.Now(),
		jobs:       make(map[string]*job),
		stop:       make(chan struct{}),
		runningSet: make(map[*job]struct{}),
	}
	s.sched = newScheduler(cfg)

	var pending []*job
	if cfg.StateDir != "" {
		opts := journal.Options{
			Fsync:    cfg.Fsync,
			Interval: cfg.FsyncInterval,
			Logf:     cfg.Logf,
			FS:       cfg.FS,
		}
		rep, err := journal.Replay(cfg.StateDir, opts)
		if err != nil {
			return nil, fmt.Errorf("service: replaying %s: %w", cfg.StateDir, err)
		}
		rst, err := s.restoreState(rep)
		if err != nil {
			return nil, fmt.Errorf("service: restoring %s: %w", cfg.StateDir, err)
		}
		jnl, err := journal.Open(cfg.StateDir, opts)
		if err != nil {
			return nil, fmt.Errorf("service: opening journal in %s: %w", cfg.StateDir, err)
		}
		s.jnl = jnl
		s.jobs = rst.jobs
		s.order = rst.order
		s.nextID.Store(rst.maxID)
		s.submitted.Store(int64(len(rst.order)))
		s.recovered.Store(rst.recovered)
		pending = rst.pending
		if len(rst.order) > 0 || rep.Torn {
			cfg.Logf("specd: recovered state from %s: %d jobs (%d completed, %d re-queued, %d restarted after crash)",
				cfg.StateDir, len(rst.order), rst.completed,
				len(rst.pending)-int(rst.recovered), rst.recovered)
		}
	}

	// Grow the queue bound so every recovered pending job re-enqueues
	// without eating into the QueueCap slots fresh admissions see —
	// recovered work was already admitted once and bypasses admission
	// control on requeue.
	s.sched.queueCap += len(pending)
	for _, j := range pending {
		s.sched.requeue(j)
	}
	if s.jnl != nil {
		// Fold the replayed segments into a fresh snapshot so the next
		// startup replays one snapshot instead of the full history.
		s.compact()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// normalize validates spec against the service limits and fills
// defaults. It returns the normalized spec or a *SpecError.
func (s *Service) normalize(spec JobSpec) (JobSpec, error) {
	if !workload.Has(spec.Workload) {
		return spec, specErrf("unknown workload %q (have %v)", spec.Workload, workload.Names())
	}
	if !workload.HasController(spec.Controller) {
		return spec, specErrf("unknown controller %q (have %v)", spec.Controller, workload.ControllerNames())
	}
	if spec.Controller == "fixed" && spec.FixedM < 1 {
		return spec, specErrf("controller \"fixed\" requires m >= 1")
	}
	if spec.Rho == 0 {
		spec.Rho = 0.25
	}
	if spec.Rho < 0 || spec.Rho >= 1 {
		return spec, specErrf("rho %v out of (0,1)", spec.Rho)
	}
	if spec.Size == 0 {
		spec.Size = 1000
	}
	if spec.Size < 1 || spec.Size > s.cfg.MaxSize {
		return spec, specErrf("size %d out of [1,%d]", spec.Size, s.cfg.MaxSize)
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	switch {
	case spec.Parallel == 0:
		spec.Parallel = s.cfg.DefaultParallel
	case spec.Parallel < -1 || spec.Parallel > 1024:
		return spec, specErrf("parallel %d out of [-1,1024]", spec.Parallel)
	}
	if spec.Degree < 0 {
		return spec, specErrf("degree %v negative", spec.Degree)
	}
	if err := workload.Validate(spec.Workload, workload.Params{Size: spec.Size, Degree: spec.Degree}); err != nil {
		return spec, specErrf("%v", err)
	}
	if spec.Workload == "spin" && spec.MaxDuration <= 0 && spec.MaxRounds <= 0 {
		return spec, specErrf("workload \"spin\" never drains: set max_duration or max_rounds")
	}
	if spec.MaxRounds <= 0 || spec.MaxRounds > s.cfg.MaxRounds {
		spec.MaxRounds = s.cfg.MaxRounds
	}
	if spec.MaxDuration < 0 {
		return spec, specErrf("max_duration %v negative", time.Duration(spec.MaxDuration))
	}
	if spec.TaskRetries == 0 {
		spec.TaskRetries = s.cfg.DefaultTaskRetries
	}
	if spec.TaskRetries < -1 || spec.TaskRetries > 1000 {
		return spec, specErrf("task_retries %d out of [-1,1000]", spec.TaskRetries)
	}
	if spec.Fault != nil {
		if !workload.Supports(spec.Workload, workload.CapFault) {
			return spec, specErrf("workload %q does not support fault injection (only %v)",
				spec.Workload, workload.CapableNames(workload.CapFault))
		}
		if err := spec.Fault.config(spec.Seed).Validate(); err != nil {
			return spec, specErrf("bad fault spec: %v", err)
		}
	}
	if spec.Mode == "" {
		// Server default, but barrier-free / colored execution only where
		// the workload supports it — the rest keep the round loop.
		spec.Mode = ModeRound
		if workload.Supports(spec.Workload, modeCap[s.cfg.DefaultMode]) {
			spec.Mode = s.cfg.DefaultMode
		}
	}
	if need, ok := modeCap[spec.Mode]; !ok {
		return spec, specErrf("unknown mode %q (have %q, %q, %q)", spec.Mode, ModeRound, ModeAsync, ModeColored)
	} else if !workload.Supports(spec.Workload, need) {
		return spec, specErrf("workload %q does not support %s execution (only %v)",
			spec.Workload, spec.Mode, workload.CapableNames(need))
	}
	if spec.CommitWindow < 0 || spec.CommitWindow > 1<<16 {
		return spec, specErrf("commit_window %d out of [0,%d]", spec.CommitWindow, 1<<16)
	}
	if spec.CommitWindow > 0 && spec.Mode != ModeAsync {
		return spec, specErrf("commit_window requires mode %q", ModeAsync)
	}
	if spec.Tenant == "" {
		spec.Tenant = DefaultTenant
	} else if err := validTenantName(spec.Tenant); err != nil {
		return spec, specErrf("bad tenant: %v", err)
	}
	if spec.Priority < 0 || spec.Priority > MaxPriority {
		return spec, specErrf("priority %d out of [0,%d]", spec.Priority, MaxPriority)
	}
	if spec.Priority == 0 {
		spec.Priority = s.sched.defaultPriorityFor(spec.Tenant)
	}
	return spec, nil
}

// Submit validates and enqueues a job. It returns the queued job's
// status, or ErrQueueFull / ErrDraining / a *SpecError.
func (s *Service) Submit(spec JobSpec) (JobStatus, error) {
	return s.submit("", spec, 1, nil)
}

// SubmitPlaced enqueues a job under a caller-assigned id — the cluster
// router submits placed jobs this way so a job keeps one id across the
// whole cluster. Resubmitting an existing id returns that job's current
// status alongside ErrDupJob, making router retries idempotent.
func (s *Service) SubmitPlaced(id string, spec JobSpec) (JobStatus, error) {
	if err := validJobID(id); err != nil {
		return JobStatus{}, err
	}
	return s.submit(id, spec, 1, nil)
}

// SubmitHandoff accepts a job handed off from a dead cluster member:
// it re-runs from spec under its original cluster-wide id through the
// StateRecovered path, with the attempt counter the router learned
// before the node died and the pre-crash trajectory prefix seeded into
// the history ring. An Attempt of 1 with no prefix re-queues the job as
// a normal first execution (it never started on the dead node).
func (s *Service) SubmitHandoff(req HandoffRequest) (JobStatus, error) {
	if err := validJobID(req.ID); err != nil {
		return JobStatus{}, err
	}
	if req.Attempt < 1 {
		req.Attempt = 1
	}
	if req.Attempt > 1<<20 {
		return JobStatus{}, specErrf("handoff attempt %d out of range", req.Attempt)
	}
	return s.submit(req.ID, req.Spec, req.Attempt, req.Prefix)
}

// validJobID bounds explicit job ids to something path- and
// journal-safe.
func validJobID(id string) error {
	if id == "" || len(id) > 64 {
		return specErrf("job id must be 1..64 characters")
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return specErrf("job id %q contains %q (want [A-Za-z0-9._-])", id, c)
		}
	}
	return nil
}

// submit is the shared admission path. id == "" allocates a local
// "j<N>" id; attempt > 1 or a non-empty prefix admits the job in
// StateRecovered (the handoff case).
func (s *Service) submit(id string, spec JobSpec, attempt int, prefix []RoundPoint) (JobStatus, error) {
	if s.draining.Load() {
		return JobStatus{}, ErrDraining
	}
	if deg, _ := s.DegradedInfo(); deg {
		return JobStatus{}, ErrDegraded
	}
	spec, err := s.normalize(spec)
	if err != nil {
		return JobStatus{}, err
	}
	if id == "" {
		id = fmt.Sprintf("j%d", s.nextID.Add(1))
	} else {
		s.placedMu.Lock()
		defer s.placedMu.Unlock()
		s.mu.Lock()
		dup, ok := s.jobs[id]
		s.mu.Unlock()
		if ok {
			return dup.snapshot(0), ErrDupJob
		}
	}
	j := &job{
		status: JobStatus{
			ID:          id,
			State:       StateQueued,
			Spec:        spec,
			SubmittedAt: time.Now(),
			Attempt:     attempt,
		},
		hist:     ring{max: s.cfg.HistoryCap},
		cancelCh: make(chan struct{}),
	}
	recovered := attempt > 1 || len(prefix) > 0
	if recovered {
		j.status.State = StateRecovered
		for _, p := range prefix {
			j.hist.push(p)
		}
	}
	// Admission first: brownout shed, per-tenant depth, global depth,
	// token bucket, and deadline-aware shedding must all reject before
	// the job becomes externally visible. Handoffs and recoveries were
	// admitted once already and only re-enter the queue.
	admit := s.sched.admit
	if recovered {
		admit = s.sched.admitHandoff
	}
	if err := admit(j); err != nil {
		s.rejected.Add(1)
		return JobStatus{}, err
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.submitted.Add(1)
	if err := s.journalSubmitted(j); err != nil && !errors.Is(err, journal.ErrClosed) {
		// The disk went bad under this very admission: refuse it rather
		// than acknowledge a job the journal cannot make durable. The
		// job may already be visible to a worker, so cancel in place
		// when it has not started (runJob skips canceled queued jobs)
		// and withdraw it from the table; in the rare race where a
		// worker already claimed it, ask it to stop at the next barrier.
		j.mu.Lock()
		undone := j.status.State == StateQueued || j.status.State == StateRecovered
		if undone {
			j.cancelLocked("journal degraded", "admission refused: journal degraded")
		}
		j.mu.Unlock()
		if undone {
			s.mu.Lock()
			delete(s.jobs, id)
			for i := len(s.order) - 1; i >= 0; i-- {
				if s.order[i] == id {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
			s.mu.Unlock()
		} else {
			j.requestCancel("journal degraded")
		}
		s.submitted.Add(-1)
		return JobStatus{}, ErrDegraded
	}
	if recovered {
		s.handedOff.Add(1)
		s.journalHandoff(j, prefix)
		s.cfg.Logf("specd: job %s accepted by handoff (attempt %d, %d prefix points)",
			id, attempt, len(prefix))
	}
	s.maybePreempt(id, spec.Priority)
	return j.snapshot(0), nil
}

// maybePreempt checks whether a fresh arrival at the given effective
// priority should displace running work: with every worker busy and
// some running job at strictly lower priority, the lowest-priority one
// is asked to pause at its next barrier, freeing its worker within one
// round (async: one window flush).
func (s *Service) maybePreempt(id string, newPrio int) {
	if newPrio <= MinPriority || s.running.Load() < int64(s.cfg.Workers) {
		return
	}
	s.runMu.Lock()
	var victim *job
	best := newPrio
	for r := range s.runningSet {
		r.mu.Lock()
		p, pending := r.status.Spec.Priority, r.preempted
		r.mu.Unlock()
		if pending {
			continue // its worker is already being freed
		}
		if p < MinPriority || p > MaxPriority {
			p = defaultPriority
		}
		if p < best {
			best, victim = p, r
		}
	}
	s.runMu.Unlock()
	if victim != nil && victim.requestPreempt() {
		s.cfg.Logf("specd: job %s (priority %d) preempting job %s (priority %d) at its next barrier",
			id, newPrio, victim.status.ID, best)
	}
}

// Job returns the status of the given job (with its full trajectory).
func (s *Service) Job(id string) (JobStatus, bool) {
	return s.JobTail(id, -1)
}

// JobTail returns the status of the given job with at most tail
// trajectory points (the newest ones). tail < 0 means the full ring;
// tail == 0 omits the trajectory.
func (s *Service) JobTail(id string, tail int) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.snapshot(tail), true
}

// Jobs lists every known job in submission order, without trajectories.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot(0)
	}
	return out
}

// Cancel requests cancellation of the given job. A queued job is
// canceled immediately; a running job is asked to stop at its next
// round barrier (Cancel returns without waiting for it). Canceling a
// terminal job returns its status and ErrJobTerminal; an unknown id
// returns ErrNoJob.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrNoJob
	}
	j.mu.Lock()
	switch j.status.State {
	case StateQueued, StateRecovered, StatePaused:
		j.cancelLocked(ReasonUserCancel, "canceled before start")
		x := s.unparkLocked(j)
		j.mu.Unlock()
		s.release(x)
		s.journalFinish(j, nil)
		s.cfg.Logf("specd: job %s canceled while queued", id)
	case StateRunning:
		j.mu.Unlock()
		j.requestCancel(ReasonUserCancel)
		s.cfg.Logf("specd: job %s cancel requested (stopping at next round barrier)", id)
	default:
		j.mu.Unlock()
		return j.snapshot(0), ErrJobTerminal
	}
	return j.snapshot(0), nil
}

// QueueDepth returns the number of jobs waiting for a worker.
func (s *Service) QueueDepth() int { return s.sched.depth() }

// Preemptions returns the number of barrier pauses forced by
// higher-priority arrivals.
func (s *Service) Preemptions() int64 { return s.preemptions.Load() }

// TenantStats snapshots the scheduler's per-tenant counters.
func (s *Service) TenantStats() []TenantStats { return s.sched.tenantStats() }

// BrownoutInfo reports the scheduler's shed level (0 = healthy), the
// last evaluated queue-wait p99 in seconds, the total sheds, and the
// configured tenants whose default priority class is currently shed.
func (s *Service) BrownoutInfo() (level int, lastP99 float64, shed int64, tenants []string) {
	level, lastP99, shed = s.sched.brownout()
	tenants = s.sched.shedTenants()
	return
}

// Running returns the number of jobs currently executing rounds.
func (s *Service) Running() int64 { return s.running.Load() }

// PoisonedTotal sums quarantined tasks across all jobs.
func (s *Service) PoisonedTotal() int64 {
	var n int64
	for _, j := range s.Jobs() {
		n += j.Poisoned
	}
	return n
}

// Draining reports whether Shutdown has begun.
func (s *Service) Draining() bool { return s.draining.Load() }

// Durable reports whether the service journals to a state directory.
func (s *Service) Durable() bool { return s.jnl != nil }

// Recovered returns the number of jobs restarted from spec after a
// crash (counted at startup replay).
func (s *Service) Recovered() int64 { return s.recovered.Load() }

// HandedOff returns the number of jobs this node accepted via cluster
// handoff (SubmitHandoff).
func (s *Service) HandedOff() int64 { return s.handedOff.Load() }

// DegradedInfo reports whether the service is in read-only degraded
// mode (journal disk fault) and the fault that caused it.
func (s *Service) DegradedInfo() (degraded bool, reason string) {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	return s.degraded, s.degradedReason
}

// DegradedSeconds returns the total time spent in degraded mode,
// including the current episode.
func (s *Service) DegradedSeconds() float64 {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	d := s.degradedAccum
	if s.degraded {
		d += time.Since(s.degradedSince)
	}
	return d.Seconds()
}

// enterDegraded flips the service into read-only degraded mode and
// starts the recovery goroutine. In-flight jobs keep running — a dead
// disk degrades durability, it does not take running work down — but
// nothing new is admitted, because an admission the journal cannot
// record would be an acknowledgment the service might not honor after
// a restart.
func (s *Service) enterDegraded(cause error) {
	s.degMu.Lock()
	if s.degraded {
		s.degMu.Unlock()
		return
	}
	s.degraded = true
	s.degradedReason = cause.Error()
	s.degradedSince = time.Now()
	spawn := !s.recovering
	s.recovering = true
	s.degMu.Unlock()
	s.cfg.Logf("specd: journal fault, entering degraded mode (reads serve, submits 503): %v", cause)
	if spawn {
		go s.degradedRecoveryLoop()
	}
}

// degradedRecoveryLoop retries the journal until the disk heals. A
// successful Reopen plus a full compaction — which re-persists every
// job whose records the broken disk may have dropped, closing the
// acknowledged-then-lost window — ends the episode.
func (s *Service) degradedRecoveryLoop() {
	tick := time.NewTicker(s.cfg.DegradedRetryInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			if err := s.jnl.Reopen(); err != nil {
				continue
			}
			if err := s.compact(); err != nil {
				continue
			}
			s.degMu.Lock()
			s.degradedAccum += time.Since(s.degradedSince)
			s.degraded = false
			s.degradedReason = ""
			s.recovering = false
			s.degMu.Unlock()
			s.cfg.Logf("specd: journal healed, leaving degraded mode")
			return
		}
	}
}

// SetClusterIdentity labels /healthz with this node's cluster identity:
// its node id, its role ("node", "router", or the default
// "standalone"), and an optional callback reporting the node's current
// membership-lease deadline.
func (s *Service) SetClusterIdentity(nodeID, role string, leaseExpires func() time.Time) {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	s.nodeID, s.role, s.leaseExpires = nodeID, role, leaseExpires
}

func (s *Service) clusterIdentity() (nodeID, role string, leaseExpires *time.Time) {
	s.idMu.Lock()
	id, r, lf := s.nodeID, s.role, s.leaseExpires
	s.idMu.Unlock()
	if r == "" {
		r = "standalone"
	}
	if lf != nil {
		if t := lf(); !t.IsZero() {
			leaseExpires = &t
		}
	}
	return id, r, leaseExpires
}

// JournalStats returns the journal's live counters (zero when the
// service is in-memory only).
func (s *Service) JournalStats() journal.Stats {
	if s.jnl == nil {
		return journal.Stats{}
	}
	return s.jnl.CurrentStats()
}

// Uptime returns time since New.
func (s *Service) Uptime() time.Duration { return time.Since(s.start) }

// Shutdown stops admission, lets running jobs finish their in-flight
// round (marking them canceled), leaves queued and paused jobs as they
// are, and waits for the workers to exit or ctx to expire. On a clean
// drain paused jobs release their executions — a restart recovers them
// like jobs that were running — and the journal is compacted into a
// snapshot and closed, so the next startup replays one snapshot file.
func (s *Service) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		close(s.stop)
		s.sched.close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.mu.Lock()
		for _, j := range s.jobs {
			j.mu.Lock()
			s.release(s.unparkLocked(j))
			j.mu.Unlock()
		}
		s.mu.Unlock()
		if s.jnl != nil {
			s.compact()
			s.closeOnce.Do(func() {
				if err := s.jnl.Close(); err != nil {
					s.cfg.Logf("specd: journal: close: %v", err)
				}
			})
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.sched.next()
		if !ok {
			return
		}
		if s.draining.Load() {
			// Drained mid-pop: leave the job in state queued — it is
			// still visible and reported as never started.
			return
		}
		if x := s.runJob(j); x != nil {
			// Preempted. Parked only now, after runJob's cleanup, so the
			// worker that resumes it starts from a clean running set.
			s.park(j, x)
		}
	}
}

// runJob runs a job until it ends or is preempted: claim it, build its
// execution or take back the one a preemption parked, hand it to
// speculation.Drive in the job's mode, record every sample, and turn the
// way the drive ended into the job's next state. It returns the
// execution to park when a preemption stopped the drive, nil otherwise.
// Stops — cancel, preemption, shutdown, deadline — are observed between
// samples only, so an in-flight round always finishes (async: in-flight
// tasks always settle) before the worker moves on: the invariant the
// SIGTERM e2e asserts and the barrier semantics DELETE /v1/jobs/{id}
// documents.
func (s *Service) runJob(j *job) (parked *execution) {
	spec := j.snapshot(0).Spec
	id := j.status.ID // immutable after creation

	// Claim: a job canceled while queued may still be sitting in the
	// scheduler; skip it instead of resurrecting it. A paused job takes
	// back its execution. A recovered one restarts from spec: its
	// attempt-local counters reset here (the attempt counter was bumped at
	// recovery), while the trajectory ring keeps the checkpointed prefix.
	// So does a paused one whose execution park released, on an attempt
	// bumped here.
	j.mu.Lock()
	x := s.unparkLocked(j)
	switch j.status.State {
	case StateQueued:
	case StatePaused:
		if x == nil {
			j.status.Attempt++
			resetAttemptCounters(j)
		}
	case StateRecovered:
		resetAttemptCounters(j)
	default:
		j.mu.Unlock()
		return nil
	}
	j.status.State = StateRunning
	now := time.Now()
	if x == nil {
		x = &execution{}
		j.status.StartedAt = &now
	}
	start := *j.status.StartedAt // the attempt's first start
	attempt := j.status.Attempt
	before := j.status.Rounds // samples the attempt recorded before a pause
	// Armed before the job enters the running set, where the preemption
	// victim scan finds it.
	j.preemptCh, j.preempted = make(chan struct{}), false
	pch := j.preemptCh
	j.mu.Unlock()

	s.running.Add(1)
	s.runMu.Lock()
	s.runningSet[j] = struct{}{}
	s.runMu.Unlock()
	// delta accumulates points not yet covered by a checkpoint record; the
	// terminal record flushes the remainder, and so does a pause.
	var delta []RoundPoint
	defer func() {
		// A panic on this goroutine — a workload constructor rejecting its
		// parameters, a bug in the drive — fails the job instead of the
		// process: the finished record makes the failure final, so a
		// restart does not replay the job into the same panic. (Panics
		// inside tasks never get here; the executors count them as task
		// failures.)
		if r := recover(); r != nil {
			s.cfg.Logf("specd: job %s panicked: %v\n%s", id, r, debug.Stack())
			s.failJob(j, id, fmt.Errorf("panic: %v", r))
		}
		// Not terminal means preempted: the execution goes on.
		fin := j.snapshot(0)
		if fin.Terminal() {
			s.release(x)
			s.journalFinish(j, delta)
		}
		s.runMu.Lock()
		delete(s.runningSet, j)
		s.runMu.Unlock()
		s.running.Add(-1)
		x.ran += time.Since(now)
		s.sched.observeService(spec.Tenant, x.ran, fin.State == StateDone)
	}()

	async := spec.Mode == ModeAsync
	unit, settled := "round", "in-flight round completed"
	if async {
		unit, settled = "sample", "in-flight tasks settled"
	}
	if x.run == nil {
		s.journalStarted(id, attempt, now)
		s.cfg.Logf("specd: job %s started: workload=%s controller=%s size=%d seed=%d attempt=%d",
			id, spec.Workload, spec.Controller, spec.Size, spec.Seed, attempt)
		ctrl, err := workload.NewController(spec.Controller, workload.ControllerParams{
			Rho: spec.Rho, M0: spec.M0, FixedM: spec.FixedM,
		})
		if err != nil {
			s.failJob(j, id, err)
			return nil
		}
		run, err := workload.New(spec.Workload, workload.Params{
			// Parallel -1 is the executor's 0: a pool of GOMAXPROCS participants.
			Size: spec.Size, Seed: spec.Seed, Parallel: max(spec.Parallel, 0), Degree: spec.Degree,
			TaskRetries: spec.TaskRetries, Fault: spec.Fault.config(spec.Seed),
		})
		if err != nil {
			s.failJob(j, id, err)
			return nil
		}
		x.ctrl, x.run = ctrl, run
	} else {
		s.cfg.Logf("specd: job %s resumed after %d %ss", id, before, unit)
	}

	// The controller's decision counters are a freshly allocated map per
	// read, so they are published on the checkpoint cadence (durable or
	// not) and on every way out — pause, cancel, drain — rather than every
	// sample; each journaled record and the final status carry the same
	// counters as if they had been. An async job's controller is driven by
	// the executor's other participants while this goroutine, worker 0,
	// delivers samples here, so its counters are published on the way out
	// only.
	telemetry, _ := x.ctrl.(control.Telemetry)

	// A stop is signalled one way: the drive's context. It carries the
	// wall-clock deadline, max_duration after the attempt's first start,
	// and the watcher cancels it on a user cancel, a preemption or
	// shutdown; stopCause tells them apart afterwards. The watcher
	// goroutine exits with the drive.
	ctx := context.Background()
	var cancelCtx context.CancelFunc
	if spec.MaxDuration > 0 {
		ctx, cancelCtx = context.WithDeadline(ctx, start.Add(time.Duration(spec.MaxDuration)))
	} else {
		ctx, cancelCtx = context.WithCancel(ctx)
	}
	defer cancelCtx()
	jobDone := make(chan struct{})
	defer close(jobDone)
	go func() {
		select {
		case <-s.stop:
		case <-j.cancelCh:
		case <-pch:
		case <-jobDone:
		case <-ctx.Done():
		}
		cancelCtx()
	}()

	// Every sample of the drive — a round, a colored super-round, an async
	// window — becomes one trajectory point, numbered on from the samples
	// the attempt recorded before a pause, and one of two predicates on it
	// says when the points since the last checkpoint are journaled: every
	// CheckpointEvery samples at a barrier, every CheckpointCommits commits
	// without one. A pause journals a checkpoint, so a resumed drive starts
	// with none pending.
	var lastCkpt int64 // Sample.TotalCommitted at the last checkpoint
	res, err := speculation.Drive(ctx, x.run.Stepper, x.ctrl, speculation.Options{
		Mode:       speculation.Mode(spec.Mode),
		MaxSamples: spec.MaxRounds - before,
		Window:     spec.CommitWindow,
		OnRound: func(sm speculation.Sample) {
			sm.Index += before
			due := (sm.Index+1)%s.cfg.CheckpointEvery == 0
			if async {
				due = sm.TotalCommitted-lastCkpt >= int64(s.cfg.CheckpointCommits)
			}
			var counters map[string]int
			if due && telemetry != nil && !async {
				counters = telemetry.Counters()
			}
			p := pointOf(sm, attempt)
			j.record(p, x.run.Stepper.Pending(), counters)
			if s.jnl != nil {
				delta = append(delta, p)
				if due {
					s.journalCheckpoint(j, delta)
					delta = delta[:0]
					lastCkpt = sm.TotalCommitted
				}
			}
		},
	})
	if err != nil {
		s.failJob(j, id, err)
		return nil
	}
	if telemetry != nil {
		j.setCounters(telemetry.Counters())
	}
	rounds := before + res.Samples
	if !res.Canceled {
		s.finishDrained(j, id, spec, x.run, rounds, unit)
		return nil
	}

	reason, preempted := s.stopCause(j, pch)
	if preempted && rounds >= spec.MaxRounds {
		// Paused at the cap: there is nothing left to resume.
		s.finishDrained(j, id, spec, x.run, rounds, unit)
		return nil
	}
	if preempted {
		// The preemption barrier: journal the points since the last
		// checkpoint with the new preemption count, lazily like any
		// checkpoint — a crash while paused recovers the job as if it had
		// been running, from spec.
		j.mu.Lock()
		j.status.Preemptions++
		j.mu.Unlock()
		s.journalCheckpoint(j, delta)
		delta = nil
		s.preemptions.Add(1)
		s.cfg.Logf("specd: job %s paused for a higher-priority job after %d %ss (re-queued to resume)",
			id, rounds, unit)
		return x
	}
	what := "canceled"
	switch reason {
	case ReasonShutdown:
		what = "interrupted by shutdown"
	case ReasonDeadline:
		what = fmt.Sprintf("deadline %v exceeded", time.Duration(spec.MaxDuration))
	}
	j.mu.Lock()
	msg := fmt.Sprintf("%s after %d %ss, %d commits", what, rounds, unit, j.status.Committed)
	j.cancelLocked(reason, msg)
	j.mu.Unlock()
	s.cfg.Logf("specd: job %s %s (%s)", id, msg, settled)
	return nil
}

// stopCause classifies a canceled drive. Several stop requests can be
// pending at once, and ctx cannot say which one fired, so the precedence
// is fixed here for every mode: a user cancel, then a preemption (the
// job pauses instead of ending), then shutdown, then the deadline — the
// only cause ctx carries by itself.
func (s *Service) stopCause(j *job, preempt <-chan struct{}) (reason string, preempted bool) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	switch {
	case closed(j.cancelCh):
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.cancelReason, false
	case closed(preempt):
		return "", true
	case closed(s.stop):
		return ReasonShutdown, false
	}
	return ReasonDeadline, false
}

// pointOf is a drive sample as the trajectory point the wire and the
// journal carry. Attempt tags points of a re-execution only.
func pointOf(sm speculation.Sample, attempt int) RoundPoint {
	p := RoundPoint{
		Round: sm.Index, M: sm.M,
		Launched: sm.Launched, Committed: sm.Committed, Aborted: sm.Aborted,
		Failed: sm.Failed, Poisoned: sm.Poisoned, R: sm.R,
		Colored: sm.Colored, Fallback: sm.Fallback,
	}
	if attempt > 1 {
		p.Attempt = attempt
	}
	return p
}

// finishDrained is the post-drive tail of a drive nobody stopped: cap
// failure when work is left, degraded completion when tasks were
// quarantined, and oracle verification otherwise. progress counts units
// ("round" or, async, "sample").
func (s *Service) finishDrained(j *job, id string, spec JobSpec, run *workload.Run, progress int, unit string) {
	if run.Stepper.Pending() > 0 {
		s.failJob(j, id, fmt.Errorf("%s cap %d reached with %d tasks pending",
			unit, spec.MaxRounds, run.Stepper.Pending()))
		return
	}
	snap := run.Stepper.Snapshot()
	if snap.Poisoned > 0 {
		// Degraded completion: the healthy tasks drained, the poisoned
		// ones are quarantined. Verification would report the holes the
		// quarantined tasks left, so record the degradation instead.
		j.mu.Lock()
		j.status.Result = fmt.Sprintf("degraded: %d tasks quarantined after exhausting retry budget (%d failures)",
			snap.Poisoned, snap.Failed)
		j.status.Reason = ReasonDegraded
		j.mu.Unlock()
		j.setState(StateDone)
		s.cfg.Logf("specd: job %s done (degraded) after %d %ss: %d poisoned", id, progress, unit, snap.Poisoned)
		return
	}
	detail, err := run.Verify()
	if err != nil {
		s.failJob(j, id, fmt.Errorf("verification failed: %w", err))
		return
	}
	j.mu.Lock()
	j.status.Result = detail
	j.mu.Unlock()
	j.setState(StateDone)
	s.cfg.Logf("specd: job %s done after %d %ss: %s", id, progress, unit, detail)
}

func (s *Service) failJob(j *job, id string, err error) {
	j.mu.Lock()
	j.status.Error = err.Error()
	j.mu.Unlock()
	j.setState(StateFailed)
	s.cfg.Logf("specd: job %s failed: %v", id, err)
}
