package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/service/client"
)

// RouterConfig tunes the cluster front door. Zero values take the
// documented defaults.
type RouterConfig struct {
	// DataDir, when set, holds the router's placement write-ahead log
	// so a router restart keeps routing jobs it placed before. The
	// lease table is deliberately ephemeral: nodes re-join within one
	// heartbeat of a router restart.
	DataDir string
	// LeaseTTL is the default lease when a renewal names none (3s).
	LeaseTTL time.Duration
	// SweepInterval is the failure-detector cadence (LeaseTTL/3).
	SweepInterval time.Duration
	// SyncInterval is the placement-sync cadence: how often the router
	// refreshes each job's attempt counter and trajectory tail from its
	// owner (1s).
	SyncInterval time.Duration
	// PrefixTail bounds the trajectory prefix cached per running job
	// for handoff (64 points).
	PrefixTail int
	// Fsync is the WAL durability policy (journal.SyncAlways).
	Fsync journal.Policy
	// HTTPClient talks to members (default: 5s timeout).
	HTTPClient *http.Client
	// SuspectGrace is how long a member may stay suspect (lease expired
	// but not proven dead) before failed probes declare it dead and its
	// jobs hand off (2×LeaseTTL). Probes that succeed keep resetting the
	// failure count, so a node cut off from the router by an asymmetric
	// partition — it cannot heartbeat, but it answers probes — is never
	// revoked while it still serves.
	SuspectGrace time.Duration
	// HedgeDelay is how long a proxied status poll waits on the
	// placement owner before the router answers it from its cache. Zero
	// means adaptive: the observed p99 proxy latency, clamped to
	// [10ms, HTTPClient timeout/2]. Negative means never fall back.
	HedgeDelay time.Duration
	// Logf receives router lifecycle lines (optional).
	Logf func(format string, args ...any)
	// Now is the failure detector's clock (tests inject one).
	Now func() time.Time
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.LeaseTTL / 3
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = time.Second
	}
	if c.PrefixTail <= 0 {
		c.PrefixTail = 64
	}
	if c.Fsync == "" {
		c.Fsync = journal.SyncAlways
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 5 * time.Second}
	}
	if c.SuspectGrace <= 0 {
		c.SuspectGrace = 2 * c.LeaseTTL
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Fixed router policy.
const (
	// probeTimeout bounds each /healthz probe of a suspect.
	probeTimeout = time.Second
	// orphanLeases is how many lease TTLs a placement may point at a
	// member the (restarted) router has never seen before its jobs are
	// handed off anyway.
	orphanLeases = 3
	// Placement and handoff RPCs try a member rpcAttempts times,
	// retrying transport errors only, with waits drawn by client.Backoff
	// from rpcBackoffBase, capped at rpcBackoffMax.
	rpcAttempts    = 3
	rpcBackoffBase = 25 * time.Millisecond
	rpcBackoffMax  = 500 * time.Millisecond
)

// placement is the router's record of one job: where it lives, the
// attempt counter and trajectory tail last synced from the owner, and
// the cached status served when the owner is unreachable.
type placement struct {
	ID      string
	Spec    service.JobSpec
	Node    string
	Attempt int
	Started bool // observed past admission (rounds > 0 or running)
	Done    bool // observed terminal
	Pending bool // owner died and no survivor accepted the handoff yet
	Last    service.JobStatus
	Prefix  []service.RoundPoint

	orphanAt time.Time // first sweep that found the owner unknown
}

// Router is the cluster front door: membership authority, job placer,
// read proxy, and handoff driver.
type Router struct {
	cfg     RouterConfig
	members *memberTable

	mu         sync.Mutex
	ring       *hashRing
	placements map[string]*placement
	seq        int64

	wal *journal.Journal

	placedTotal  atomic.Int64 // jobs placed since start
	handoffs     atomic.Int64 // handoffs accepted by survivors
	deadNodes    atomic.Int64 // members declared dead
	proxyErrors  atomic.Int64 // member requests that failed at transport level
	scrapeErrors atomic.Int64 // failed member scrapes during fan-out
	hedges       atomic.Int64 // reads served from the cache after hedgeDelay
	rpcRetries   atomic.Int64 // RPC attempts beyond the first, across all member calls

	// latMu guards the sliding window of proxied-read latencies that
	// feeds the adaptive hedge delay.
	latMu      sync.Mutex
	latSamples []time.Duration
	latNext    int

	jitterSeq atomic.Uint64 // backoff jitter stream

	start   time.Time
	stop    chan struct{}
	stopped sync.WaitGroup
	closed  sync.Once
}

// walRecord is one router WAL entry. Place records carry the spec (the
// router must be able to re-submit after the owner and itself both
// restarted); handoff and terminal records just move the pointer.
type walRecord struct {
	Type    string           `json:"type"` // "place" | "handoff" | "terminal"
	ID      string           `json:"id"`
	Node    string           `json:"node,omitempty"`
	Attempt int              `json:"attempt,omitempty"`
	Spec    *service.JobSpec `json:"spec,omitempty"`
}

// walSnapshot is the compacted WAL state.
type walSnapshot struct {
	Version    int         `json:"version"`
	Seq        int64       `json:"seq"`
	Placements []walPlaced `json:"placements"`
}

type walPlaced struct {
	ID      string          `json:"id"`
	Node    string          `json:"node"`
	Attempt int             `json:"attempt"`
	Done    bool            `json:"done,omitempty"`
	Spec    service.JobSpec `json:"spec"`
}

// NewRouter builds a router, replaying the placement WAL when DataDir
// is set, and starts the failure-detector and sync loops.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:        cfg,
		members:    newMemberTable(cfg.Now),
		ring:       buildRing(nil),
		placements: make(map[string]*placement),
		start:      time.Now(),
		stop:       make(chan struct{}),
	}
	r.jitterSeq.Store(uint64(time.Now().UnixNano()))
	if cfg.DataDir != "" {
		if err := r.replayWAL(); err != nil {
			return nil, err
		}
		w, err := journal.Open(cfg.DataDir, journal.Options{Fsync: cfg.Fsync, Logf: cfg.Logf})
		if err != nil {
			return nil, err
		}
		r.wal = w
	}
	r.stopped.Add(2)
	go r.sweepLoop()
	go r.syncLoop()
	return r, nil
}

func (r *Router) replayWAL() error {
	rep, err := journal.Replay(r.cfg.DataDir, journal.Options{Logf: r.cfg.Logf})
	if err != nil {
		return fmt.Errorf("cluster: replaying router wal: %w", err)
	}
	if rep.Snapshot != nil {
		var snap walSnapshot
		if err := json.Unmarshal(rep.Snapshot, &snap); err != nil {
			return fmt.Errorf("cluster: bad router snapshot: %w", err)
		}
		r.seq = snap.Seq
		for _, p := range snap.Placements {
			r.placements[p.ID] = &placement{
				ID: p.ID, Spec: p.Spec, Node: p.Node, Attempt: p.Attempt, Done: p.Done,
			}
		}
	}
	for _, raw := range rep.Records {
		var rec walRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			r.cfg.Logf("cluster: skipping bad router wal record: %v", err)
			continue
		}
		switch rec.Type {
		case "place":
			pl := &placement{ID: rec.ID, Node: rec.Node, Attempt: rec.Attempt}
			if rec.Spec != nil {
				pl.Spec = *rec.Spec
			}
			r.placements[rec.ID] = pl
			if n, ok := parseSeqID(rec.ID); ok && n > r.seq {
				r.seq = n
			}
		case "handoff":
			if pl, ok := r.placements[rec.ID]; ok {
				pl.Node = rec.Node
				pl.Attempt = rec.Attempt
			}
		case "terminal":
			if pl, ok := r.placements[rec.ID]; ok {
				pl.Done = true
			}
		}
	}
	if n := len(r.placements); n > 0 {
		r.cfg.Logf("cluster: router wal restored %d placements (seq %d)", n, r.seq)
	}
	return nil
}

// parseSeqID extracts N from a router-assigned id "cN".
func parseSeqID(id string) (int64, bool) {
	if !strings.HasPrefix(id, "c") {
		return 0, false
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	return n, err == nil
}

func (r *Router) appendWAL(rec walRecord) {
	if r.wal == nil {
		return
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if err := r.wal.Append(raw); err != nil {
		r.cfg.Logf("cluster: router wal append failed: %v", err)
	}
}

// Close stops the loops and compacts the WAL into a snapshot.
func (r *Router) Close() {
	r.closed.Do(func() {
		close(r.stop)
		r.stopped.Wait()
		if r.wal != nil {
			err := r.wal.Compact(func() ([]byte, error) {
				r.mu.Lock()
				defer r.mu.Unlock()
				snap := walSnapshot{Version: 1, Seq: r.seq}
				for _, pl := range r.placements {
					snap.Placements = append(snap.Placements, walPlaced{
						ID: pl.ID, Node: pl.Node, Attempt: pl.Attempt, Done: pl.Done, Spec: pl.Spec,
					})
				}
				sort.Slice(snap.Placements, func(i, j int) bool {
					return snap.Placements[i].ID < snap.Placements[j].ID
				})
				return json.Marshal(snap)
			})
			if err != nil {
				r.cfg.Logf("cluster: router wal compact failed: %v", err)
			}
			_ = r.wal.Close()
		}
	})
}

// rebuildRing snapshots the alive set into a fresh hash ring.
func (r *Router) rebuildRing() {
	alive := r.members.alive()
	ids := make([]string, len(alive))
	for i, m := range alive {
		ids[i] = m.ID
	}
	r.mu.Lock()
	r.ring = buildRing(ids)
	r.mu.Unlock()
}

// candidates returns the placement order for a job id: the ring owner
// first (with its ring successors as deterministic tie-breakers), then
// any remaining alive members by ascending load. The ring walk already
// covers every alive member, so the load sort only reorders the
// non-owner tail. Members that reported a degraded journal are
// excluded — they would 503 every submit anyway, so the router routes
// around them instead of burning an RPC to learn it.
func (r *Router) candidates(id string) []MemberInfo {
	alive := r.members.alive()
	if len(alive) == 0 {
		return nil
	}
	healthy := alive[:0:0]
	for _, m := range alive {
		if !m.Load.Degraded {
			healthy = append(healthy, m)
		}
	}
	alive = healthy
	if len(alive) == 0 {
		return nil
	}
	byID := make(map[string]MemberInfo, len(alive))
	for _, m := range alive {
		byID[m.ID] = m
	}
	r.mu.Lock()
	order := r.ring.successors(id)
	r.mu.Unlock()
	var out []MemberInfo
	seen := make(map[string]bool)
	for _, mid := range order {
		if m, ok := byID[mid]; ok && !seen[mid] {
			seen[mid] = true
			out = append(out, m)
		}
	}
	if len(out) > 1 {
		tail := out[1:]
		sort.SliceStable(tail, func(i, j int) bool {
			li := tail[i].Load.QueueDepth + int(tail[i].Load.Running)
			lj := tail[j].Load.QueueDepth + int(tail[j].Load.Running)
			if li != lj {
				return li < lj
			}
			return tail[i].ID < tail[j].ID
		})
	}
	for _, m := range alive { // members not on the ring yet (stale snapshot)
		if !seen[m.ID] {
			out = append(out, m)
		}
	}
	// Browned-out nodes are shedding their lowest priority classes:
	// still usable (unlike degraded ones, which were filtered above),
	// but placed last so new work lands on healthy peers first. The
	// stable sort preserves the ring/least-loaded order within each
	// group.
	sort.SliceStable(out, func(i, j int) bool {
		return !out[i].Load.Brownout && out[j].Load.Brownout
	})
	return out
}

// nextID assigns the next cluster-wide job id.
func (r *Router) nextID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return "c" + strconv.FormatInt(r.seq, 10)
}

// place submits spec to the cluster under a fresh cluster-wide id.
// It walks the candidate order, skipping members that are full (429),
// draining (503), or unreachable; a 400 is the spec's fault and comes
// back with its code and the node's reason as the error. The returned
// status carries the owning node and the HTTP code to relay.
func (r *Router) place(ctx context.Context, spec service.JobSpec) (service.JobStatus, int, error) {
	id := r.nextID()
	cands := r.candidates(id)
	if len(cands) == 0 {
		return service.JobStatus{}, http.StatusServiceUnavailable,
			fmt.Errorf("cluster: no alive members")
	}
	var lastErr error
	for _, m := range cands {
		c := r.member(m.Addr)
		var st service.JobStatus
		err := r.retry(ctx, func() (err error) {
			st, err = c.SubmitPlaced(ctx, id, spec)
			return err
		})
		var he *client.HTTPError
		switch {
		case err == nil:
			st.Node = m.ID
			r.recordPlacement(id, spec, m.ID)
			return st, http.StatusAccepted, nil
		case errors.Is(err, client.ErrBusy): // full: next candidate
			lastErr = fmt.Errorf("cluster: %s refused placement (%d)", m.ID, http.StatusTooManyRequests)
		case !errors.As(err, &he): // transport failure: next candidate
			r.proxyErrors.Add(1)
			lastErr = err
		case he.StatusCode == http.StatusServiceUnavailable: // draining: next candidate
			lastErr = fmt.Errorf("cluster: %s refused placement (%d)", m.ID, he.StatusCode)
		default: // 400 and friends: the spec's problem, relayed with its code
			msg := "placement refused by node"
			if he.Message != "" {
				msg += ": " + he.Message
			}
			return service.JobStatus{}, he.StatusCode, errors.New(msg)
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no member accepted the job")
	}
	return service.JobStatus{}, http.StatusServiceUnavailable, lastErr
}

func (r *Router) recordPlacement(id string, spec service.JobSpec, node string) {
	r.mu.Lock()
	r.placements[id] = &placement{ID: id, Spec: spec, Node: node, Attempt: 1}
	r.mu.Unlock()
	r.placedTotal.Add(1)
	r.appendWAL(walRecord{Type: "place", ID: id, Node: node, Attempt: 1, Spec: &spec})
}

// member returns a client for one member over the router's transport.
func (r *Router) member(addr string) *client.Client {
	return &client.Client{BaseURL: addr, HTTPClient: r.cfg.HTTPClient}
}

// answered reports whether err is a member's HTTP answer rather than a
// transport failure: any answer, even an error status, is proof the
// member is alive and is the member's word on the request.
func answered(err error) bool {
	var he *client.HTTPError
	var be *client.BusyError
	return errors.As(err, &he) || errors.As(err, &be)
}

// retry runs one member RPC, retrying transport errors on the
// rpcAttempts schedule and counting each retry in
// specd_rpc_retries_total. An HTTP answer, whatever the code, is the
// member's answer and comes back as-is.
func (r *Router) retry(ctx context.Context, rpc func() error) error {
	p := client.Backoff{
		MaxRetries: rpcAttempts - 1, Base: rpcBackoffBase, Max: rpcBackoffMax,
		Seed: r.jitterSeq.Add(0x9e3779b97f4a7c15),
	}
	n, err := p.Retry(ctx, rpc, func(err error) (time.Duration, bool) { return 0, !answered(err) })
	r.rpcRetries.Add(int64(n))
	return err
}

// latWindow is the sliding-window size of the proxy-latency estimator.
const latWindow = 256

// recordLatency feeds one successful proxied-read latency into the
// window behind the adaptive hedge delay.
func (r *Router) recordLatency(d time.Duration) {
	r.latMu.Lock()
	defer r.latMu.Unlock()
	if len(r.latSamples) < latWindow {
		r.latSamples = append(r.latSamples, d)
		return
	}
	r.latSamples[r.latNext] = d
	r.latNext = (r.latNext + 1) % latWindow
}

// hedgeDelay returns how long a proxied read waits on the owner before
// falling back to the cache: the configured value when set (negative =
// never), otherwise
// the observed p99 proxy latency clamped to [10ms, half the member
// client's timeout], defaulting to 100ms until enough samples exist.
func (r *Router) hedgeDelay() time.Duration {
	if r.cfg.HedgeDelay != 0 {
		return r.cfg.HedgeDelay
	}
	r.latMu.Lock()
	samples := append([]time.Duration(nil), r.latSamples...)
	r.latMu.Unlock()
	max := 2500 * time.Millisecond
	if t := r.cfg.HTTPClient.Timeout; t > 0 {
		max = t / 2
	}
	if len(samples) < 16 {
		d := 100 * time.Millisecond
		if d > max {
			d = max
		}
		return d
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	p99 := samples[len(samples)*99/100]
	if p99 < 10*time.Millisecond {
		p99 = 10 * time.Millisecond
	}
	if p99 > max {
		p99 = max
	}
	return p99
}

// sweepLoop is the failure detector: expire leases, hand off the jobs
// of the newly dead, and retry handoffs still pending.
func (r *Router) sweepLoop() {
	defer r.stopped.Done()
	tick := time.NewTicker(r.cfg.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.sweepOnce()
		}
	}
}

func (r *Router) sweepOnce() {
	// Expired leases become suspects, not corpses: the member drops off
	// the placement ring (no new work) but keeps serving the jobs it
	// owns while probes decide its fate. This is what lets a node on
	// the losing side of an asymmetric partition — its heartbeats are
	// lost, the router can still reach it — survive without a revoked
	// lease or a double-executed job.
	suspected := r.members.sweep()
	if len(suspected) > 0 {
		r.rebuildRing()
		for _, id := range suspected {
			r.cfg.Logf("cluster: member %s lease expired, now suspect (probing)", id)
		}
	}
	var dead []string
	for _, m := range r.members.suspects() {
		// Any HTTP answer counts as proof of life: a degraded or draining
		// node is unwell, not dead, and handing off its running jobs would
		// double-execute them.
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		_, err := r.member(m.Addr).Health(ctx)
		cancel()
		if r.members.judge(m.ID, err == nil || answered(err), r.cfg.SuspectGrace) {
			dead = append(dead, m.ID)
		}
	}
	if len(dead) > 0 {
		r.deadNodes.Add(int64(len(dead)))
		for _, id := range dead {
			r.cfg.Logf("cluster: member %s failed probes past suspect grace, handing off its jobs", id)
			r.handoffNode(id)
		}
	}
	r.reconcile()
}

// handoffNode re-places every unfinished job owned by the given member.
func (r *Router) handoffNode(node string) {
	r.mu.Lock()
	var todo []*placement
	for _, pl := range r.placements {
		if pl.Node == node && !pl.Done {
			todo = append(todo, pl)
		}
	}
	r.mu.Unlock()
	sort.Slice(todo, func(i, j int) bool { return todo[i].ID < todo[j].ID })
	for _, pl := range todo {
		r.handoffJob(pl)
	}
}

// handoffJob re-submits one placement to a survivor. A job observed
// running gets its attempt bumped (the new run is a re-execution); a
// job that never started keeps attempt 1 and re-queues normally.
func (r *Router) handoffJob(pl *placement) {
	r.mu.Lock()
	if pl.Done {
		r.mu.Unlock()
		return
	}
	deadNode := pl.Node
	attempt := pl.Attempt
	if pl.Started {
		attempt++
	}
	hreq := service.HandoffRequest{
		ID:      pl.ID,
		Spec:    pl.Spec,
		Attempt: attempt,
		Prefix:  append([]service.RoundPoint(nil), pl.Prefix...),
	}
	r.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, m := range r.candidates(pl.ID) {
		if m.ID == deadNode {
			continue
		}
		c := r.member(m.Addr)
		err := r.retry(ctx, func() error {
			return c.Call(ctx, http.MethodPost, "/v1/cluster/handoff", hreq, nil)
		})
		if err != nil { // refused (next candidate) or unreachable
			if !answered(err) {
				r.proxyErrors.Add(1)
			}
			continue
		}
		r.mu.Lock()
		pl.Node = m.ID
		pl.Attempt = attempt
		pl.Pending = false
		pl.orphanAt = time.Time{}
		r.mu.Unlock()
		r.handoffs.Add(1)
		r.appendWAL(walRecord{Type: "handoff", ID: pl.ID, Node: m.ID, Attempt: attempt})
		r.cfg.Logf("cluster: job %s handed off %s -> %s (attempt %d, %d prefix points)",
			pl.ID, deadNode, m.ID, attempt, len(hreq.Prefix))
		return
	}
	r.mu.Lock()
	pl.Pending = true
	r.mu.Unlock()
	r.cfg.Logf("cluster: job %s from %s has no survivor yet; will retry", pl.ID, deadNode)
}

// reconcile retries pending handoffs and detects orphans: placements
// pointing at members this (possibly restarted) router has never seen.
// Orphans get a grace window to re-join before their jobs hand off.
func (r *Router) reconcile() {
	now := r.cfg.Now()
	r.mu.Lock()
	var retry []*placement
	for _, pl := range r.placements {
		if pl.Done {
			continue
		}
		if pl.Pending {
			retry = append(retry, pl)
			continue
		}
		if m, ok := r.members.get(pl.Node); !ok {
			if pl.orphanAt.IsZero() {
				pl.orphanAt = now
			} else if now.Sub(pl.orphanAt) >= orphanLeases*r.cfg.LeaseTTL {
				retry = append(retry, pl)
			}
		} else if m.State == StateAlive {
			pl.orphanAt = time.Time{}
		}
	}
	r.mu.Unlock()
	sort.Slice(retry, func(i, j int) bool { return retry[i].ID < retry[j].ID })
	for _, pl := range retry {
		r.handoffJob(pl)
	}
}

// syncLoop keeps the placement table fresh: each pass fans out
// GET /v1/jobs to every alive member, adopts attempt counters and
// terminal states, and refreshes the trajectory tail of running jobs
// so a later handoff carries their pre-crash prefix.
func (r *Router) syncLoop() {
	defer r.stopped.Done()
	tick := time.NewTicker(r.cfg.SyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.syncOnce()
		}
	}
}

func (r *Router) syncOnce() {
	// Suspects are synced too: they are still running their jobs, and a
	// fresh trajectory tail is exactly what a later handoff needs.
	for _, m := range append(r.members.alive(), r.members.suspects()...) {
		c := r.member(m.Addr)
		jobs, err := scrape(c.Jobs)
		if err != nil {
			r.scrapeErrors.Add(1)
			continue
		}
		for _, st := range jobs {
			r.mu.Lock()
			pl, ok := r.placements[st.ID]
			if !ok || pl.Node != m.ID {
				r.mu.Unlock()
				continue
			}
			if st.Attempt > pl.Attempt {
				pl.Attempt = st.Attempt
			}
			if st.Rounds > 0 || st.State == service.StateRunning || st.StartedAt != nil {
				pl.Started = true
			}
			st.Node = m.ID
			pl.Last = st
			wantPrefix := !st.Terminal() && pl.Started
			if st.Terminal() && !pl.Done {
				pl.Done = true
				r.mu.Unlock()
				r.appendWAL(walRecord{Type: "terminal", ID: st.ID, Node: m.ID})
				continue
			}
			r.mu.Unlock()
			if wantPrefix {
				tail, err := scrape(func(ctx context.Context) (service.JobStatus, error) {
					return c.JobTail(ctx, st.ID, r.cfg.PrefixTail)
				})
				if err == nil && len(tail.Trajectory) > 0 {
					r.mu.Lock()
					pl.Prefix = tail.Trajectory
					r.mu.Unlock()
				}
			}
		}
	}
}

// scrape runs one background read of a member — the sync loop's and
// the fan-outs' — bounded at 5s.
func scrape[T any](read func(context.Context) (T, error)) (T, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return read(ctx)
}

// Uptime reports time since the router started.
func (r *Router) Uptime() time.Duration { return time.Since(r.start) }

// placementCount reports tracked (non-deleted) placements.
func (r *Router) placementCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.placements)
}
