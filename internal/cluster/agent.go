package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service/client"
)

// AgentConfig wires a node's membership agent.
type AgentConfig struct {
	// RouterURL is the router's base URL (the -join flag).
	RouterURL string
	// NodeID is this node's cluster id (must be stable across the
	// node's restarts for handoff bookkeeping to read well, but any
	// unique string works).
	NodeID string
	// Advertise is the base URL peers and the router reach this node at.
	Advertise string
	// TTL is the lease duration requested on each renewal; heartbeats
	// fire every TTL/3 so two can be lost before the lease expires.
	TTL time.Duration
	// Incarnation distinguishes this process from earlier ones under
	// the same NodeID. Monotone per restart (wall-clock nanos do fine).
	Incarnation int64
	// Load reports current load for least-loaded placement (optional).
	Load func() LoadInfo
	// HTTPClient defaults to a 5s-timeout client.
	HTTPClient *http.Client
	// Logf receives agent lifecycle lines (optional).
	Logf func(format string, args ...any)
}

// Agent keeps a node's membership lease alive. It heartbeats the
// router every TTL/3, tracks the gossiped membership view, and closes
// Revoked() if the router refuses the lease — the signal to drain.
type Agent struct {
	cfg    AgentConfig
	router *client.Client

	mu      sync.Mutex
	expires time.Time
	members []MemberInfo

	revoked   chan struct{}
	revokeMsg string
	revOnce   sync.Once

	jitterSeq atomic.Uint64

	ctx     context.Context // canceled by Close: ends the heartbeat loop and its retries
	stop    context.CancelFunc
	stopped sync.WaitGroup
}

// agentRetryMax bounds the in-period retries of one heartbeat: with
// heartbeats every TTL/3, two quick retries still finish well inside
// the period, so a transient router blip costs milliseconds of lease
// slack instead of a whole heartbeat.
const agentRetryMax = 2

// StartAgent joins the cluster (the first renewal is the join) and
// starts the heartbeat loop. The initial join is attempted eagerly and
// retried by the loop, so a node may come up before its router.
func StartAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.RouterURL == "" || cfg.NodeID == "" || cfg.Advertise == "" {
		return nil, fmt.Errorf("cluster: agent needs RouterURL, NodeID, and Advertise")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 3 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	a := &Agent{
		cfg:     cfg,
		router:  client.New(cfg.RouterURL),
		revoked: make(chan struct{}),
	}
	a.router.HTTPClient = cfg.HTTPClient
	if a.router.HTTPClient == nil {
		a.router.HTTPClient = &http.Client{Timeout: 5 * time.Second}
	}
	a.ctx, a.stop = context.WithCancel(context.Background())
	a.jitterSeq.Store(uint64(time.Now().UnixNano()))
	if err := a.renew(); err != nil {
		a.cfg.Logf("cluster: initial join of %s failed (will retry): %v", cfg.RouterURL, err)
	}
	a.stopped.Add(1)
	go a.loop()
	return a, nil
}

func (a *Agent) loop() {
	defer a.stopped.Done()
	tick := time.NewTicker(a.cfg.TTL / 3)
	defer tick.Stop()
	for {
		select {
		case <-a.ctx.Done():
			return
		case <-a.revoked:
			return
		case <-tick.C:
			if err := a.renewWithRetry(); err != nil {
				a.cfg.Logf("cluster: lease renewal failed: %v", err)
			}
		}
	}
}

// renewWithRetry sends one heartbeat, retrying failures on a jittered
// exponential schedule (from 25ms, capped at TTL/6) so a transient
// router blip does not burn a whole heartbeat period of lease slack and
// restarting agents desynchronize.
func (a *Agent) renewWithRetry() error {
	base := 25 * time.Millisecond
	p := client.Backoff{
		MaxRetries: agentRetryMax, Base: base, Max: max(a.cfg.TTL/6, base),
		Seed: a.jitterSeq.Add(0x9e3779b97f4a7c15),
	}
	_, err := p.Retry(a.ctx, a.renew, func(error) (time.Duration, bool) { return 0, true })
	return err
}

// renew sends one heartbeat and folds the response into the agent.
func (a *Agent) renew() error {
	req := renewRequest{
		ID:          a.cfg.NodeID,
		Addr:        a.cfg.Advertise,
		Incarnation: a.cfg.Incarnation,
		TTLMillis:   a.cfg.TTL.Milliseconds(),
	}
	if a.cfg.Load != nil {
		req.Load = a.cfg.Load()
	}
	var resp renewResponse
	if err := a.post(a.ctx, "/v1/cluster/renew", req, &resp); err != nil {
		return err
	}
	if resp.Revoked {
		a.revOnce.Do(func() {
			a.revokeMsg = resp.Reason
			close(a.revoked)
		})
		return nil
	}
	a.mu.Lock()
	a.expires = resp.Expires
	a.members = resp.Members
	a.mu.Unlock()
	return nil
}

// post sends one control-plane call to the router, bounded at 5s.
func (a *Agent) post(ctx context.Context, path string, body, out any) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	return a.router.Call(ctx, http.MethodPost, path, body, out)
}

// Revoked is closed when the router refuses this incarnation's lease;
// the node should stop accepting work and drain.
func (a *Agent) Revoked() <-chan struct{} { return a.revoked }

// RevokeReason reports why the lease was revoked ("" while held).
func (a *Agent) RevokeReason() string {
	select {
	case <-a.revoked:
		return a.revokeMsg
	default:
		return ""
	}
}

// LeaseExpires returns the deadline of the last successful renewal
// (zero before the first one).
func (a *Agent) LeaseExpires() time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.expires
}

// Members returns the membership view gossiped with the last renewal.
func (a *Agent) Members() []MemberInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]MemberInfo(nil), a.members...)
}

// Close stops the heartbeat loop and, if the lease is still held,
// announces a clean departure so the router hands our jobs off
// immediately instead of waiting out the lease.
func (a *Agent) Close() {
	if a.ctx.Err() != nil {
		return
	}
	a.stop()
	a.stopped.Wait()
	if a.RevokeReason() == "" {
		_ = a.post(context.Background(), "/v1/cluster/leave", leaveRequest{
			ID:          a.cfg.NodeID,
			Incarnation: a.cfg.Incarnation,
		}, nil)
	}
}
