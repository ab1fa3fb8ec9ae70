package service

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Admission-rejection classes carried by RejectError. The overload e2e
// distinguishes "the shared queue is exhausted" from "your own quota or
// bound tripped" with them, and metrics count rejections per class.
const (
	// RejectQueue: the global queue is full (shared-resource exhaustion).
	RejectQueue = "queue"
	// RejectTenant: the tenant's own MaxPending bound is full.
	RejectTenant = "tenant"
	// RejectQuota: the tenant's token bucket is empty.
	RejectQuota = "quota"
	// RejectShed: brownout — sustained overload sheds this priority class.
	RejectShed = "shed"
	// RejectDeadline: the job's max_duration is shorter than the
	// estimated queue wait; running it would only burn a slot to miss
	// its deadline anyway.
	RejectDeadline = "deadline"
)

// RejectError is a 429 admission rejection carrying the computed retry
// hint and the rejection class. errors.Is(err, ErrQueueFull) matches
// the capacity classes (queue, tenant) so pre-tenant callers keep
// working.
type RejectError struct {
	Class  string // RejectQueue | RejectTenant | RejectQuota | RejectShed | RejectDeadline
	Tenant string
	Wait   time.Duration // computed Retry-After (bucket refill or estimated dequeue time)
}

func (e *RejectError) Error() string {
	switch e.Class {
	case RejectQueue:
		return ErrQueueFull.Error()
	case RejectTenant:
		return fmt.Sprintf("service: tenant %q queue full", e.Tenant)
	case RejectQuota:
		return fmt.Sprintf("service: tenant %q over admission rate (retry in %v)", e.Tenant, e.Wait)
	case RejectShed:
		return fmt.Sprintf("service: overloaded, shedding tenant %q priority class", e.Tenant)
	case RejectDeadline:
		return fmt.Sprintf("service: estimated queue wait %v exceeds max_duration", e.Wait)
	}
	return "service: admission rejected"
}

// Is makes errors.Is(err, ErrQueueFull) true for the capacity classes,
// preserving pre-tenant caller behavior (every rejection still maps to
// HTTP 429 regardless of class).
func (e *RejectError) Is(target error) bool {
	return target == ErrQueueFull && (e.Class == RejectQueue || e.Class == RejectTenant)
}

// zeroWeightQuantum is the fractional DRR quantum granted to tenants
// with negative (scavenger) weight: they dequeue one job per eight full
// rotations instead of starving outright.
const zeroWeightQuantum = 0.125

// schedEntry is one queued job plus the instant it entered the
// scheduler — paused re-enqueues reset it, so queue-wait telemetry
// measures scheduler wait, not job age.
type schedEntry struct {
	j  *job
	at time.Time
}

// tenantQ is one tenant's scheduler state: a queue per priority, the
// DRR credit, the admission bucket, and counters.
type tenantQ struct {
	name   string
	cfg    TenantConfig
	bucket tokenBucket
	q      [MaxPriority + 1][]schedEntry
	queued int
	credit float64

	submitted int64
	completed int64
	rejected  map[string]int64 // by reject class
}

// quantum is the tenant's DRR refill. Weight 0 (unset) counts as 1;
// negative weights scavenge at zeroWeightQuantum.
func (t *tenantQ) quantum() float64 {
	switch {
	case t.cfg.Weight > 0:
		return float64(t.cfg.Weight)
	case t.cfg.Weight == 0:
		return 1
	default:
		return zeroWeightQuantum
	}
}

// defaultPrio is the effective priority for specs that set none.
func (t *tenantQ) defaultPrio() int {
	if t.cfg.Priority >= MinPriority && t.cfg.Priority <= MaxPriority {
		return t.cfg.Priority
	}
	return defaultPriority
}

// maxPending is the tenant's queue bound (global cap when unset).
func (t *tenantQ) maxPending(queueCap int) int {
	if t.cfg.MaxPending > 0 {
		return t.cfg.MaxPending
	}
	return queueCap
}

// brownoutConfig tunes sustained-overload detection.
type brownoutConfig struct {
	// p99 is the queue-wait threshold; <= 0 disables brownout.
	p99 time.Duration
	// windows is how many consecutive bad windows escalate the shed
	// level by one.
	windows int
	// window is the sample count per evaluation window.
	window int
}

// scheduler replaces the FIFO job channel: per-tenant bounded queues
// with token-bucket admission, strict priority tiers, and
// deficit-round-robin dequeue within a tier. All state is guarded by
// mu; workers block on cond until work arrives or the scheduler
// closes.
type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	queueCap  int
	workers   int
	defaults  TenantConfig
	overrides map[string]TenantConfig
	logf      func(string, ...any)

	tenants map[string]*tenantQ
	rr      []*tenantQ // DRR rotation, insertion order
	cur     int        // rotation position
	total   int        // queued jobs across all tenants

	closed bool

	// svcEWMA is the exponentially weighted mean job service time in
	// seconds, feeding queue-wait estimates (Retry-After, deadline
	// shedding). Zero until the first job completes.
	svcEWMA float64

	// Brownout: p99 queue wait over threshold for N consecutive windows
	// escalates level; a good window de-escalates. Priorities <= level
	// are shed at admission. Level never exceeds MaxPriority-1, so a
	// priority-9 job is always admissible. If no window completes for
	// brownoutIdleDecay (shedding can starve the dequeues that feed the
	// window), the level decays on the wall clock instead so it cannot
	// latch permanently.
	brown      brownoutConfig
	window     []float64 // queue-wait seconds, current window
	badWindows int
	level      int
	lastP99    float64
	lastEval   time.Time // wall clock of the last window evaluation
	shedTotal  int64
}

func newScheduler(cfg Config) *scheduler {
	s := &scheduler{
		queueCap:  cfg.QueueCap,
		workers:   cfg.Workers,
		defaults:  cfg.TenantDefaults,
		overrides: make(map[string]TenantConfig, len(cfg.Tenants)),
		logf:      cfg.Logf,
		tenants:   make(map[string]*tenantQ),
		brown: brownoutConfig{
			p99:     cfg.BrownoutP99,
			windows: cfg.BrownoutWindows,
			window:  cfg.BrownoutWindow,
		},
	}
	for _, t := range cfg.Tenants {
		if t.Name != "" {
			s.overrides[t.Name] = t
		}
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// tenantLocked returns (creating on demand) the named tenant's queue.
func (s *scheduler) tenantLocked(name string) *tenantQ {
	if name == "" {
		name = DefaultTenant
	}
	if t, ok := s.tenants[name]; ok {
		return t
	}
	cfg, ok := s.overrides[name]
	if !ok {
		cfg = s.defaults
		cfg.Name = name
	}
	t := &tenantQ{
		name:     name,
		cfg:      cfg,
		bucket:   newBucket(cfg.Rate, cfg.Burst),
		rejected: make(map[string]int64),
	}
	s.tenants[name] = t
	s.rr = append(s.rr, t)
	return t
}

// defaultPriorityFor resolves the default priority for a tenant's
// unset-priority specs (normalize fills it into the spec).
func (s *scheduler) defaultPriorityFor(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantLocked(name).defaultPrio()
}

// effPriority resolves a spec's effective priority for scheduling.
// normalize fills Priority on fresh submissions; specs replayed from a
// pre-tenant journal may still carry 0.
func (s *scheduler) effPriority(t *tenantQ, prio int) int {
	if prio >= MinPriority && prio <= MaxPriority {
		return prio
	}
	return t.defaultPrio()
}

// estWaitLocked estimates the queue wait with `ahead` jobs in front,
// from the service-time EWMA spread across the worker pool. Zero until
// the first completion (no data, no guesses).
func (s *scheduler) estWaitLocked(ahead int) time.Duration {
	if s.svcEWMA <= 0 || ahead <= 0 {
		return 0
	}
	w := float64(ahead) / float64(s.workers) * s.svcEWMA
	return time.Duration(w * float64(time.Second))
}

// retryAfterLocked is the computed wait suggestion for a capacity
// rejection: the estimated time until one slot frees, floored at a
// second when no service-time data exists yet (the pre-tenant
// constant).
func (s *scheduler) retryAfterLocked() time.Duration {
	if w := s.estWaitLocked(1); w > 0 {
		return w
	}
	return time.Second
}

// admit runs the full admission pipeline for a fresh submission:
// brownout shed, per-tenant depth, global depth, deadline-aware
// shedding, and the token bucket, in that order. The bucket comes last
// so a rejection on any other check never burns a quota token for work
// that was never queued. The job is not yet visible to any other
// goroutine.
func (s *scheduler) admit(j *job) error {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	spec := &j.status.Spec
	t := s.tenantLocked(spec.Tenant)
	prio := s.effPriority(t, spec.Priority)
	s.decayIdleLocked(now)
	if s.level > 0 && prio <= s.level {
		t.rejected[RejectShed]++
		s.shedTotal++
		wait := s.estWaitLocked(s.total)
		if wait < time.Second {
			wait = time.Second
		}
		return &RejectError{Class: RejectShed, Tenant: t.name, Wait: wait}
	}
	if t.queued >= t.maxPending(s.queueCap) {
		t.rejected[RejectTenant]++
		return &RejectError{Class: RejectTenant, Tenant: t.name, Wait: s.retryAfterLocked()}
	}
	if s.total >= s.queueCap {
		t.rejected[RejectQueue]++
		return &RejectError{Class: RejectQueue, Tenant: t.name, Wait: s.retryAfterLocked()}
	}
	if spec.MaxDuration > 0 {
		if est := s.estWaitLocked(s.total); est > time.Duration(spec.MaxDuration) {
			t.rejected[RejectDeadline]++
			return &RejectError{Class: RejectDeadline, Tenant: t.name, Wait: est}
		}
	}
	if ok, wait := t.bucket.take(now); !ok {
		t.rejected[RejectQuota]++
		return &RejectError{Class: RejectQuota, Tenant: t.name, Wait: wait}
	}
	t.submitted++
	s.pushLocked(t, prio, j, now)
	return nil
}

// admitHandoff enqueues an already-admitted job arriving from another
// node. Only the global bound applies — quota and shedding were paid on
// the node that first accepted it — but the bound still matters so the
// router's retry loop spreads a dead node's jobs instead of dogpiling
// one survivor.
func (s *scheduler) admitHandoff(j *job) error {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	spec := &j.status.Spec
	t := s.tenantLocked(spec.Tenant)
	if s.total >= s.queueCap {
		t.rejected[RejectQueue]++
		return &RejectError{Class: RejectQueue, Tenant: t.name, Wait: s.retryAfterLocked()}
	}
	t.submitted++
	s.pushLocked(t, s.effPriority(t, spec.Priority), j, now)
	return nil
}

// requeue re-enqueues a job bypassing admission control: recovered and
// paused jobs were already admitted once, and refusing them now would
// lose acknowledged work.
func (s *scheduler) requeue(j *job) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	spec := &j.status.Spec
	t := s.tenantLocked(spec.Tenant)
	s.pushLocked(t, s.effPriority(t, spec.Priority), j, now)
}

func (s *scheduler) pushLocked(t *tenantQ, prio int, j *job, now time.Time) {
	t.q[prio] = append(t.q[prio], schedEntry{j: j, at: now})
	t.queued++
	s.total++
	s.cond.Signal()
}

// next blocks until a job is available and dequeues it, or returns
// false once the scheduler closes (shutdown). Queued jobs survive
// close in their tenant queues — still visible, reported as never
// started, exactly like the old channel's drain semantics.
func (s *scheduler) next() (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.total == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return nil, false
	}
	e := s.popLocked()
	s.noteWaitLocked(time.Since(e.at))
	return e.j, true
}

// popLocked dequeues by strict priority tier, deficit-round-robin
// across tenants within the highest non-empty tier. Tenants earn
// `quantum()` credit when the rotation reaches them and spend one
// credit per dequeue, so backlogged tenants at weights 3:1 dequeue in
// a 3:1 ratio; scavenger (negative-weight) tenants accrue fractional
// credit and still progress. Callers guarantee total > 0.
func (s *scheduler) popLocked() schedEntry {
	for p := MaxPriority; p >= MinPriority; p-- {
		if !s.tierHasWorkLocked(p) {
			continue
		}
		for {
			t := s.rr[s.cur%len(s.rr)]
			if len(t.q[p]) == 0 {
				// Empty at this tier: pass without spending the turn. The
				// credit persists — the tenant may hold work at another
				// tier — but an empty pass never accrues more.
				s.cur = (s.cur + 1) % len(s.rr)
				continue
			}
			if t.credit < 1 {
				t.credit += t.quantum()
				if t.credit < 1 {
					// Scavenger: not enough credit yet, come back next
					// rotation.
					s.cur = (s.cur + 1) % len(s.rr)
					continue
				}
			}
			t.credit--
			e := t.q[p][0]
			t.q[p] = t.q[p][1:]
			t.queued--
			s.total--
			if t.queued == 0 {
				// DRR resets an emptied flow's deficit so a long-idle
				// tenant cannot bank unbounded credit.
				t.credit = 0
			}
			if t.credit < 1 {
				s.cur = (s.cur + 1) % len(s.rr)
			}
			return e
		}
	}
	// Unreachable while total > 0; keep the compiler honest.
	panic("scheduler: popLocked with empty queues")
}

func (s *scheduler) tierHasWorkLocked(p int) bool {
	for _, t := range s.rr {
		if len(t.q[p]) > 0 {
			return true
		}
	}
	return false
}

// close wakes every blocked worker; queued jobs stay queued.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// depth is the number of queued jobs across all tenants.
func (s *scheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// observeService folds one completed job's service time into the EWMA
// and credits the tenant's completion counter. Incomplete attempts —
// paused (preempted) partial runs, failures, cancels — are ignored:
// folding them in would drag the EWMA toward short partial-attempt
// durations, underestimating queue wait and weakening both Retry-After
// hints and deadline-aware shedding.
func (s *scheduler) observeService(tenant string, d time.Duration, completed bool) {
	if !completed {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	const alpha = 0.2
	sec := d.Seconds()
	if s.svcEWMA <= 0 {
		s.svcEWMA = sec
	} else {
		s.svcEWMA = alpha*sec + (1-alpha)*s.svcEWMA
	}
	s.tenantLocked(tenant).completed++
}

// brownoutIdleDecay bounds how long a shed level can survive without a
// window evaluation. Windows are fed by dequeues, and shedding itself
// can cut off the traffic that produces dequeues (e.g. level 5 with
// all-priority-5 tenants admits nothing, so the window never fills and
// the level would latch until restart). Past this idle span the level
// decays on the wall clock instead.
const brownoutIdleDecay = 5 * time.Second

// noteWaitLocked feeds one dequeue's queue wait into the brownout
// window. A full window evaluates: p99 over threshold is a bad window,
// N consecutive bad windows escalate the shed level, a good window
// de-escalates.
func (s *scheduler) noteWaitLocked(w time.Duration) {
	if s.brown.p99 <= 0 {
		return
	}
	s.window = append(s.window, w.Seconds())
	if len(s.window) < s.brown.window {
		return
	}
	s.evalWindowLocked(time.Now())
}

// evalWindowLocked scores the current (non-empty, possibly partial)
// window against the p99 threshold and adjusts the shed level.
func (s *scheduler) evalWindowLocked(now time.Time) {
	sorted := append([]float64(nil), s.window...)
	sort.Float64s(sorted)
	p99 := sorted[len(sorted)*99/100]
	s.lastP99 = p99
	s.window = s.window[:0]
	s.lastEval = now
	if p99 > s.brown.p99.Seconds() {
		s.badWindows++
		if s.badWindows >= s.brown.windows && s.level < MaxPriority-1 {
			s.level++
			s.badWindows = 0
			s.logf("specd: brownout: queue-wait p99 %.3fs over %.3fs for %d windows, shedding priority <= %d",
				p99, s.brown.p99.Seconds(), s.brown.windows, s.level)
		}
	} else {
		s.badWindows = 0
		if s.level > 0 {
			s.level--
			s.logf("specd: brownout: queue-wait p99 %.3fs back under threshold, shed level now %d", p99, s.level)
		}
	}
}

// decayIdleLocked de-escalates the shed level when no full window has
// evaluated within brownoutIdleDecay. A trickle of dequeues too slow to
// fill a window is scored as a partial window; total silence — which,
// with shedding active, usually means shedding starved the queue — is
// treated as a good window. Either way the level cannot latch: it
// steps down at least once per idle span until traffic admits again.
func (s *scheduler) decayIdleLocked(now time.Time) {
	if s.brown.p99 <= 0 || s.level == 0 {
		return
	}
	if s.lastEval.IsZero() {
		// Level was forced (degraded-mode integration) before any window
		// evaluated; start the idle clock now.
		s.lastEval = now
		return
	}
	if now.Sub(s.lastEval) < brownoutIdleDecay {
		return
	}
	if len(s.window) > 0 {
		s.evalWindowLocked(now)
		return
	}
	s.lastEval = now
	s.badWindows = 0
	s.level--
	s.logf("specd: brownout: no queue-wait samples for %v, decaying shed level to %d",
		brownoutIdleDecay, s.level)
}

// brownout reports the current shed level and last evaluated p99,
// applying the idle decay first so /healthz never reports a level that
// has latched past its decay deadline.
func (s *scheduler) brownout() (level int, lastP99 float64, shed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.decayIdleLocked(time.Now())
	return s.level, s.lastP99, s.shedTotal
}

// setBrownoutLevel forces the shed level (tests and the degraded-mode
// integration drive it directly).
func (s *scheduler) setBrownoutLevel(level int) {
	if level < 0 {
		level = 0
	}
	if level > MaxPriority-1 {
		level = MaxPriority - 1
	}
	s.mu.Lock()
	s.level = level
	s.mu.Unlock()
}

// TenantStats is one tenant's scheduler counters, exported on /metrics.
type TenantStats struct {
	Name      string
	Weight    int
	Queued    int
	Submitted int64
	Completed int64
	Rejected  map[string]int64
}

// tenantStats snapshots every tenant's counters in rotation order.
func (s *scheduler) tenantStats() []TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStats, 0, len(s.rr))
	for _, t := range s.rr {
		st := TenantStats{
			Name: t.name, Weight: t.cfg.Weight, Queued: t.queued,
			Submitted: t.submitted, Completed: t.completed,
			Rejected: make(map[string]int64, len(t.rejected)),
		}
		for k, v := range t.rejected {
			st.Rejected[k] = v
		}
		out = append(out, st)
	}
	return out
}

// shedTenants lists configured tenants whose default priority class is
// currently shed — the /healthz "shed classes" report.
func (s *scheduler) shedTenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.decayIdleLocked(time.Now())
	if s.level == 0 {
		return nil
	}
	var out []string
	for _, t := range s.rr {
		if t.defaultPrio() <= s.level {
			out = append(out, t.name)
		}
	}
	sort.Strings(out)
	return out
}
