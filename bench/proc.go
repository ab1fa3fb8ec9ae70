package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service/client"
)

// env is what one benchmark process owns outside its own memory: the
// specd binary, a scratch directory inside the checkout, and every
// subprocess started, so that exit, SIGINT and the wall-clock cap can
// all leave nothing behind.
type env struct {
	root string // repository root (parent of bench/)
	bin  string // built cmd/specd
	work string // scratch directory for state dirs, removed on exit

	mu     sync.Mutex
	procs  []*proc
	closed bool // set by close: nothing may be launched afterwards
}

// newEnv locates the repository, builds cmd/specd into .bench_build/ and
// creates this process's scratch directory there. State dirs live inside
// the checkout, not in os.TempDir: the benchmark may write nowhere else,
// and the fsync numbers are then those of the checkout's filesystem.
func newEnv() (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := wd
	for {
		if _, err := os.Stat(filepath.Join(root, "cmd", "specd", "main.go")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no cmd/specd above %s: run from the repository", wd)
		}
		root = parent
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	e := &env{root: root, bin: filepath.Join(build, "specd")}
	cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/specd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cmd/specd: %v\n%s", err, out)
	}
	if e.work, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// close kills every subprocess still running, waits for each, and
// removes the scratch directory.
func (e *env) close() {
	e.mu.Lock()
	procs := e.procs
	e.procs, e.closed = nil, true
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(e.work)
}

// proc is one running specd subprocess.
type proc struct {
	cmd  *exec.Cmd
	args []string
	url  string
	done chan struct{} // closed once the process has exited and its output is drained

	mu   sync.Mutex
	tail []string // last output lines, for error reports
}

// start launches specd with args on an ephemeral port and returns once
// the "listening on" line gave its address.
func (e *env) start(args ...string) (*proc, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	p := &proc{cmd: exec.Command(e.bin, args...), args: args, done: make(chan struct{})}
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.cmd.Stderr = p.cmd.Stdout
	// Under the lock, so that close either sees this process or stops it
	// from starting: a SIGINT mid-launch must not leave a server behind.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("benchmark is shutting down")
	}
	err = p.cmd.Start()
	if err == nil {
		e.procs = append(e.procs, p)
	}
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}

	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		const marker = "specd: listening on "
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 {
				select {
				case addr <- strings.Fields(line[i+len(marker):])[0]:
				default:
				}
			}
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
		_ = p.cmd.Wait() // the exit status of a killed server says nothing
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("specd %v exited before listening:\n%s", args, p.output())
	case <-time.After(20 * time.Second):
		p.kill()
		return nil, fmt.Errorf("specd %v did not listen within 20s:\n%s", args, p.output())
	}
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// kill stops the process and waits until it has ended. State dirs are
// thrown away, so there is nothing a graceful drain would save.
func (p *proc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}

// procStat reads user+system CPU seconds and resident megabytes of a
// live process from /proc (USER_HZ is 100 on every Linux Go runs on).
func procStat(pid int) (cpuS, rssMB float64) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, 0
	}
	// Fields after the parenthesised command name, which may hold spaces.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 22 {
		return 0, 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	rssPages, _ := strconv.ParseFloat(f[21], 64)
	return (utime + stime) / 100, rssPages * float64(os.Getpagesize()) / (1 << 20)
}

// stack is a serving specd deployment: one node, or a router fronting
// three. The load generator only ever sees url.
type stack struct {
	url   string   // front door
	nodes []string // node base URLs, for /metrics
	pids  []int    // every server process (the bench's own pid when in-process)
	flags [][]string
	setup time.Duration // launch -> serving
	stop  func()
	alive func() bool
}

// cpuSeconds sums user+system CPU over every server process.
func (s *stack) cpuSeconds() float64 {
	var total float64
	for _, pid := range s.pids {
		c, _ := procStat(pid)
		total += c
	}
	return total
}

// nodeFlags are the flags every job-running specd gets.
func nodeFlags(w *workloadDef, stateDir, tenantsPath string) []string {
	args := []string{"-state-dir", stateDir, "-fsync", "always", "-workers", "2", "-parallel", "2",
		"-queue", strconv.Itoa(queueCap)}
	if w.tenants {
		args = append(args, "-tenants", tenantsPath)
	}
	return args
}

// startStack launches the workload's deployment as subprocesses on fresh
// state dirs under dir and waits until it serves: /healthz ok, and for a
// cluster three live members. setup excludes `go build`.
func (e *env) startStack(w *workloadDef, dir string) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tenantsPath := filepath.Join(dir, "tenants.json")
	if w.tenants {
		b, _ := json.Marshal(tenantsFile)
		if err := os.WriteFile(tenantsPath, b, 0o644); err != nil {
			return nil, err
		}
	}
	var procs []*proc
	s := &stack{}
	s.stop = func() {
		for _, p := range procs {
			p.kill()
		}
	}
	s.alive = func() bool {
		for _, p := range procs {
			if !p.alive() {
				return false
			}
		}
		return true
	}
	launch := func(args ...string) (*proc, error) {
		p, err := e.start(args...)
		if err != nil {
			s.stop()
			return nil, err
		}
		procs = append(procs, p)
		s.pids = append(s.pids, p.cmd.Process.Pid)
		s.flags = append(s.flags, p.args)
		return p, nil
	}

	t0 := time.Now()
	members := 0
	if w.cluster {
		router, err := launch("-mode", "router", "-state-dir", filepath.Join(dir, "router"), "-fsync", "always")
		if err != nil {
			return nil, err
		}
		s.url = router.url
		for members < 3 {
			members++
			id := "n" + strconv.Itoa(members)
			args := append([]string{"-mode", "node", "-node-id", id, "-join", router.url},
				nodeFlags(w, filepath.Join(dir, id), tenantsPath)...)
			node, err := launch(args...)
			if err != nil {
				return nil, err
			}
			s.nodes = append(s.nodes, node.url)
		}
	} else {
		node, err := launch(nodeFlags(w, filepath.Join(dir, "node"), tenantsPath)...)
		if err != nil {
			return nil, err
		}
		s.url, s.nodes = node.url, []string{node.url}
	}
	if err := waitServing(s.url, members, s.alive); err != nil {
		s.stop()
		return nil, err
	}
	s.setup = time.Since(t0)
	return s, nil
}

// waitServing polls /healthz until it answers ok and, for a router,
// reports `members` alive members.
func waitServing(url string, members int, alive func() bool) error {
	c := client.New(url)
	deadline := time.Now().Add(20 * time.Second)
	for {
		h, err := c.Health(context.Background())
		if err == nil && h.Status == "ok" && h.Members["alive"] >= members {
			return nil
		}
		if !alive() {
			return fmt.Errorf("a server process died during set-up")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not serving after 20s (last: %+v, %v)", url, h, err)
		}
		time.Sleep(time.Millisecond)
	}
}
