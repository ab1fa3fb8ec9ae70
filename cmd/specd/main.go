// Command specd is the long-running speculation service: an HTTP daemon
// that accepts (workload, controller) jobs, runs them on the speculative
// executor under adaptive processor allocation, and exposes live
// telemetry — the paper's control loop as an operable system.
//
//	specd -addr 127.0.0.1:8080 -workers 2 -queue 64
//
// API (see internal/service):
//
//	POST   /v1/jobs       {"workload":"mesh","controller":"hybrid","rho":0.25,...}
//	GET    /v1/jobs       list jobs
//	GET    /v1/jobs/{id}  live status: current m, conflict ratio, trajectory
//	DELETE /v1/jobs/{id}  cancel a queued or running job at the next round barrier
//	GET    /metrics       Prometheus text exposition
//	GET    /healthz       liveness / drain signal, queue depth, in-flight and poisoned counts
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/.
//
// -async makes barrier-free execution the default for jobs whose
// workload supports it ("cc", "spin", "stable"): the job's -parallel
// workers claim chunks of tasks against a resizable in-flight limit and
// the controller is fed by a sliding commit window. -colored makes
// colored execution the default where supported ("mesh", "cluster",
// "cc", "stable"). It is declare-or-round: when the tasks declare their
// footprints (cc, stable), a coloring of the declared conflict graph
// partitions them into conflict-free classes, which run lock-free until
// a staleness trip falls back to rounds; mesh and cluster do not
// declare and run in rounds. Jobs may still pick a mode explicitly with
// {"mode":"round"|"async"|"colored"}.
//
// With -state-dir set the daemon is durable: every job lifecycle
// transition is journaled to a write-ahead log in that directory
// (fsync policy chosen by -fsync; progress checkpointed every
// -checkpoint-rounds rounds, or for async jobs every
// -checkpoint-commits commits), and a restart with the same -state-dir
// replays it — completed jobs reappear with their trajectories, queued
// jobs re-enqueue, and jobs that were running (or paused by a
// preemption) when the process died are re-run from spec. Under -fsync
// always every record waits for its fsync except the checkpoints, which
// reach the OS before the round loop moves on and the disk at most 5 ms
// later.
//
// # Cluster modes
//
// specd scales out as a sharded cluster (see internal/cluster):
//
//	specd -mode router -addr 127.0.0.1:8080 -state-dir /var/lib/specd-router
//	specd -mode node -addr 127.0.0.1:9001 -node-id n1 -join http://127.0.0.1:8080
//
// A router serves the same job API but places jobs on member nodes by
// consistent hashing with least-loaded fallback, fans out lists and
// metrics, and hands a dead node's unfinished jobs off to survivors.
// A node with -join heartbeats the router to hold a TTL membership
// lease (-lease-ttl); if the lease is revoked — the router declared it
// dead and may have handed its jobs away — the node drains instead of
// split-braining. -advertise overrides the URL the router reaches the
// node at (defaults to http://<listen-addr>).
//
// On SIGINT/SIGTERM the daemon drains gracefully: admission stops,
// running jobs finish their in-flight round and are marked canceled,
// queued jobs stay queued, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/service"
)

func main() {
	mode := flag.String("mode", "node", "process role: node | router")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	queueCap := flag.Int("queue", 64, "bounded job-queue capacity (overflow returns 429)")
	workers := flag.Int("workers", 2, "concurrent job runners")
	history := flag.Int("history", 256, "trajectory points kept per job (the newest; a job's ring grows with its rounds up to this)")
	parallel := flag.Int("parallel", 2, "default cap on a job's participants, for jobs that do not set one, in every mode: the job's worker plus up to parallel-1 helpers, which a round engages only while they arrive in time and an async job keeps throughout")
	maxRounds := flag.Int("max-rounds", 0, "hard per-job round cap (0 = effectively unlimited)")
	taskRetries := flag.Int("task-retries", 0, "default retry budget for failed tasks (0 = executor default, -1 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight rounds on shutdown")
	stateDir := flag.String("state-dir", "", "state directory for the write-ahead journal (empty = in-memory only)")
	fsyncPolicy := flag.String("fsync", "always", "journal fsync policy: always (acks, attempt bumps and terminal states wait for their fsync; checkpoints are fsynced within 5ms) | interval (every record is fsynced within 5ms) | never")
	checkpointRounds := flag.Int("checkpoint-rounds", 32, "journal a running job's progress every K rounds (the round loop does not wait for the checkpoint's fsync)")
	checkpointCommits := flag.Int("checkpoint-commits", 2048, "journal a running async job's progress every K commits")
	asyncDefault := flag.Bool("async", false, "run jobs barrier-free by default where the workload supports it (jobs may still set \"mode\" explicitly)")
	coloredDefault := flag.Bool("colored", false, "run jobs in colored mode (declare-or-round) by default where the workload supports it (jobs may still set \"mode\" explicitly)")
	withPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	tenantsFile := flag.String("tenants", "", "per-tenant admission config file (JSON: {defaults, tenants:[{name,weight,rate,burst,max_pending,priority}]})")
	brownoutP99 := flag.Duration("brownout-p99", 0, "queue-wait p99 threshold that triggers brownout shedding (0 = off)")
	brownoutWindows := flag.Int("brownout-windows", 3, "consecutive bad windows before the brownout shed level escalates")

	// Cluster flags.
	join := flag.String("join", "", "router base URL to join as a cluster node (node mode)")
	nodeID := flag.String("node-id", "", "stable cluster node id (default: host:port of -addr)")
	advertise := flag.String("advertise", "", "base URL the router reaches this node at (default http://<listen-addr>)")
	leaseTTL := flag.Duration("lease-ttl", 3*time.Second, "membership lease TTL; heartbeats fire every TTL/3")
	sweepInterval := flag.Duration("sweep-interval", 0, "router failure-detector cadence (default lease-ttl/3)")
	syncInterval := flag.Duration("sync-interval", time.Second, "router placement-sync cadence")
	prefixTail := flag.Int("prefix-tail", 64, "trajectory points the router caches per running job for handoff")
	suspectGrace := flag.Duration("suspect-grace", 0, "how long an expired lease may stay suspect before failed probes kill it (default 2×lease-ttl)")
	hedgeDelay := flag.Duration("hedge-delay", 0, "router read-hedge delay (0 = adaptive p99, negative = hedging off)")
	chaosSeed := flag.Uint64("chaos-seed", 0, "seed for the outbound chaos transport (with -chaos-plan)")
	chaosPlan := flag.String("chaos-plan", "", `outbound fault plan, e.g. "router>n3:lat=50ms..100ms;n2>router:part" (src is "router" or this -node-id)`)
	flag.Parse()

	logger := log.New(os.Stdout, "", log.LstdFlags)

	fsync, err := journal.ParsePolicy(*fsyncPolicy)
	if err != nil {
		logger.Fatalf("specd: %v", err)
	}

	var chaosLinks map[string]faultinject.LinkFault
	if *chaosPlan != "" {
		if chaosLinks, err = faultinject.ParseChaosPlan(*chaosPlan); err != nil {
			logger.Fatalf("specd: bad -chaos-plan: %v", err)
		}
	}
	// chaosClient wraps outbound RPCs in the chaos transport when a plan
	// is armed; src names this end in the plan's "src>dst" keys.
	chaosClient := func(src string) *http.Client {
		if chaosLinks == nil {
			return nil
		}
		logger.Printf("specd: chaos transport armed for %s (seed=%d plan=%q)", src, *chaosSeed, *chaosPlan)
		return &http.Client{
			Timeout: 5 * time.Second,
			Transport: &faultinject.ChaosTransport{
				Src:    src,
				Config: faultinject.ChaosConfig{Seed: *chaosSeed, Links: chaosLinks},
			},
		}
	}

	if *mode == "router" {
		runRouter(logger, routerFlags{
			addr: *addr, stateDir: *stateDir, fsync: fsync,
			leaseTTL: *leaseTTL, sweepInterval: *sweepInterval,
			syncInterval: *syncInterval, prefixTail: *prefixTail,
			suspectGrace: *suspectGrace, hedgeDelay: *hedgeDelay,
			httpClient: chaosClient("router"),
		})
		return
	}
	if *mode != "node" {
		logger.Fatalf("specd: unknown -mode %q (want node or router)", *mode)
	}

	if *asyncDefault && *coloredDefault {
		logger.Fatalf("specd: -async and -colored are mutually exclusive defaults")
	}
	defaultMode := service.ModeRound
	if *asyncDefault {
		defaultMode = service.ModeAsync
	}
	if *coloredDefault {
		defaultMode = service.ModeColored
	}
	var tenantCfg service.TenantsFile
	if *tenantsFile != "" {
		if tenantCfg, err = service.LoadTenants(*tenantsFile); err != nil {
			logger.Fatalf("specd: %v", err)
		}
		logger.Printf("specd: loaded %d tenant overrides from %s", len(tenantCfg.Tenants), *tenantsFile)
	}
	svc, err := service.Open(service.Config{
		QueueCap:           *queueCap,
		Workers:            *workers,
		HistoryCap:         *history,
		DefaultParallel:    *parallel,
		MaxRounds:          *maxRounds,
		DefaultTaskRetries: *taskRetries,
		StateDir:           *stateDir,
		Fsync:              fsync,
		CheckpointEvery:    *checkpointRounds,
		CheckpointCommits:  *checkpointCommits,
		DefaultMode:        defaultMode,
		Tenants:            tenantCfg.Tenants,
		TenantDefaults:     tenantCfg.Defaults,
		BrownoutP99:        *brownoutP99,
		BrownoutWindows:    *brownoutWindows,
		Logf:               logger.Printf,
	})
	if err != nil {
		logger.Fatalf("specd: %v", err)
	}

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	if *withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("specd: listen: %v", err)
	}
	durable := "off"
	if *stateDir != "" {
		durable = fmt.Sprintf("%s (fsync=%s)", *stateDir, fsync)
	}
	// Printed before serving so harnesses using :0 can scrape the port.
	logger.Printf("specd: listening on %s (workers=%d queue=%d state=%s)", ln.Addr(), *workers, *queueCap, durable)

	// Join the cluster after the listener exists (the advertise URL
	// must be live before the router can place jobs here).
	var agent *cluster.Agent
	if *join != "" {
		id := *nodeID
		if id == "" {
			id = ln.Addr().String()
		}
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		agent, err = cluster.StartAgent(cluster.AgentConfig{
			RouterURL:   *join,
			NodeID:      id,
			Advertise:   adv,
			TTL:         *leaseTTL,
			Incarnation: time.Now().UnixNano(),
			HTTPClient:  chaosClient(id),
			Load: func() cluster.LoadInfo {
				degraded, _ := svc.DegradedInfo()
				return cluster.LoadInfo{
					QueueDepth: svc.QueueDepth(),
					Running:    svc.Running(),
					Degraded:   degraded,
					Brownout:   svc.BrownedOut(),
				}
			},
			Logf: logger.Printf,
		})
		if err != nil {
			logger.Fatalf("specd: %v", err)
		}
		svc.SetClusterIdentity(id, "node", agent.LeaseExpires)
		logger.Printf("specd: joined cluster at %s as %s (advertise %s, lease %s)", *join, id, adv, *leaseTTL)
	}

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var agentRevoked <-chan struct{} // nil (blocks forever) outside a cluster
	if agent != nil {
		agentRevoked = agent.Revoked()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	exitCode := 0
	select {
	case got := <-sig:
		logger.Printf("specd: received %s, draining", got)
	case <-agentRevoked:
		// The router revoked our lease: it declared this node dead and
		// may already have handed our jobs to survivors. Running on
		// would split-brain those jobs, so drain instead.
		logger.Printf("specd: cluster lease revoked (%s), draining to avoid split-brain", agent.RevokeReason())
		exitCode = 1
	case err := <-serveErr:
		logger.Fatalf("specd: serve: %v", err)
	}

	if agent != nil {
		agent.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain order: stop the job runners first (finishing in-flight
	// rounds) while the API keeps answering status queries, then close
	// the HTTP server.
	if err := svc.Shutdown(ctx); err != nil {
		logger.Printf("specd: drain incomplete: %v", err)
		os.Exit(1)
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("specd: http shutdown: %v", err)
		os.Exit(1)
	}
	queued := 0
	for _, j := range svc.Jobs() {
		if j.State == service.StateQueued {
			queued++
		}
	}
	logger.Printf("specd: drained cleanly (%d jobs still queued)", queued)
	fmt.Println("specd: exit")
	os.Exit(exitCode)
}

type routerFlags struct {
	addr          string
	stateDir      string
	fsync         journal.Policy
	leaseTTL      time.Duration
	sweepInterval time.Duration
	syncInterval  time.Duration
	prefixTail    int
	suspectGrace  time.Duration
	hedgeDelay    time.Duration
	httpClient    *http.Client
}

// runRouter serves the cluster front door.
func runRouter(logger *log.Logger, f routerFlags) {
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		DataDir:       f.stateDir,
		LeaseTTL:      f.leaseTTL,
		SweepInterval: f.sweepInterval,
		SyncInterval:  f.syncInterval,
		PrefixTail:    f.prefixTail,
		SuspectGrace:  f.suspectGrace,
		HedgeDelay:    f.hedgeDelay,
		HTTPClient:    f.httpClient,
		Fsync:         f.fsync,
		Logf:          logger.Printf,
	})
	if err != nil {
		logger.Fatalf("specd: %v", err)
	}

	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		logger.Fatalf("specd: listen: %v", err)
	}
	durable := "off"
	if f.stateDir != "" {
		durable = fmt.Sprintf("%s (fsync=%s)", f.stateDir, f.fsync)
	}
	logger.Printf("specd: listening on %s (mode=router lease-ttl=%s state=%s)", ln.Addr(), f.leaseTTL, durable)

	srv := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case got := <-sig:
		logger.Printf("specd: received %s, shutting down router", got)
	case err := <-serveErr:
		logger.Fatalf("specd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("specd: http shutdown: %v", err)
	}
	rt.Close()
	fmt.Println("specd: exit")
}
