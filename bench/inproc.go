package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/service"
)

// startInProcess composes the same deployment as startStack inside the
// benchmark process, with t's seams between the layers: a timing vfs.FS
// under each service, middleware around Service.Handler() and
// Router.Handler(), and a timing RoundTripper as the router's outbound
// transport. Requests still cross real loopback connections. Absolute
// numbers differ from the subprocess runs (the generator shares the Go
// runtime with the servers); the traced pass is for where time goes, not
// for how much.
func startInProcess(w *workloadDef, dir string, t *tracer) (*stack, error) {
	s := &stack{pids: []int{os.Getpid()}}
	var closers []func()
	s.stop = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	s.alive = func() bool { return true }

	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
		go srv.Serve(ln) // returns when srv.Close runs
		closers = append(closers, func() { srv.Close() })
		return "http://" + ln.Addr().String(), nil
	}
	node := func(id string) (*service.Service, string, error) {
		cfg := service.Config{
			QueueCap: queueCap, Workers: 2, DefaultParallel: 2,
			StateDir: filepath.Join(dir, id), Fsync: journal.SyncAlways, FS: t.fs(id),
		}
		if w.tenants {
			cfg.Tenants, cfg.TenantDefaults = tenantsFile.Tenants, tenantsFile.Defaults
		}
		svc, err := service.Open(cfg)
		if err != nil {
			return nil, "", err
		}
		closers = append(closers, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = svc.Shutdown(ctx) // nothing is running; the state dir is thrown away
		})
		url, err := serve(t.middleware("service.http", id, svc.Handler()))
		return svc, url, err
	}

	t0 := time.Now()
	members := 0
	if w.cluster {
		rt, err := cluster.NewRouter(cluster.RouterConfig{
			DataDir: filepath.Join(dir, "router"),
			HTTPClient: &http.Client{Timeout: 5 * time.Second,
				Transport: t.rpcTransport(&http.Transport{MaxIdleConnsPerHost: 4})},
		})
		if err != nil {
			return nil, err
		}
		closers = append(closers, rt.Close)
		if s.url, err = serve(t.middleware("cluster.handle", "router", rt.Handler())); err != nil {
			s.stop()
			return nil, err
		}
		for members < 3 {
			members++
			id := "n" + strconv.Itoa(members)
			svc, url, err := node(id)
			if err != nil {
				s.stop()
				return nil, err
			}
			agent, err := cluster.StartAgent(cluster.AgentConfig{
				RouterURL: s.url, NodeID: id, Advertise: url, Incarnation: time.Now().UnixNano(),
				Load: func() cluster.LoadInfo {
					return cluster.LoadInfo{QueueDepth: svc.QueueDepth(), Running: svc.Running()}
				},
			})
			if err != nil {
				s.stop()
				return nil, err
			}
			closers = append(closers, agent.Close)
			svc.SetClusterIdentity(id, "node", agent.LeaseExpires)
			s.nodes = append(s.nodes, url)
		}
	} else {
		_, url, err := node("node")
		if err != nil {
			s.stop()
			return nil, err
		}
		s.url, s.nodes = url, []string{url}
	}
	if err := waitServing(s.url, members, s.alive); err != nil {
		s.stop()
		return nil, err
	}
	s.setup = time.Since(t0)
	return s, nil
}
