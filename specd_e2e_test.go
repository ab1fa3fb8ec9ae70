package repro

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// specdProc wraps a running specd subprocess with line-buffered access
// to its combined output.
type specdProc struct {
	cmd     *exec.Cmd
	mu      sync.Mutex
	out     []string
	exitErr error
	done    chan struct{} // closed once the process has exited
}

func (p *specdProc) lines() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.out...)
}

// waitLine polls the captured output until a line containing substr
// appears, returning it.
func (p *specdProc) waitLine(t *testing.T, substr string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, l := range p.lines() {
			if strings.Contains(l, substr) {
				return l
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no %q in specd output after %v:\n%s", substr, timeout, strings.Join(p.lines(), "\n"))
	return ""
}

// buildCmd builds ./cmd/<name> into a temporary directory, with -race
// when the test binary itself has the detector, so the e2e suites run the
// daemon's executors and service under it too.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	args := []string{"build", "-o", bin}
	if raceBuild {
		args = append(args, "-race")
	}
	cmd := exec.Command("go", append(args, "./cmd/"+name)...)
	cmd.Env = os.Environ()
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, msg)
	}
	return bin
}

// startSpecd launches the daemon on an ephemeral port and returns the
// process handle plus its base URL (scraped from the listening line).
func startSpecd(t *testing.T, bin string, extra ...string) (*specdProc, string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting specd: %v", err)
	}
	p := &specdProc{cmd: cmd, done: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.mu.Lock()
			p.out = append(p.out, sc.Text())
			p.mu.Unlock()
		}
		p.exitErr = cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
		}
		// A -race daemon reports a race on its output and keeps going; a
		// SIGKILLed one never reaches the exit status that would flag it.
		if out := strings.Join(p.lines(), "\n"); strings.Contains(out, "WARNING: DATA RACE") {
			t.Errorf("specd %v reported a data race:\n%s", args, out)
		}
	})

	line := p.waitLine(t, "specd: listening on ", 20*time.Second)
	addr := strings.TrimPrefix(line[strings.Index(line, "specd: listening on "):], "specd: listening on ")
	addr = strings.Fields(addr)[0]
	return p, "http://" + addr
}

// TestSpecdSIGTERM checks the daemon's graceful-shutdown contract at the
// process level: SIGTERM with an active job lets the in-flight round
// complete, leaves a queued job queued, and exits 0.
func TestSpecdSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}
	bin := buildCmd(t, "specd")
	p, base := startSpecd(t, bin, "-workers", "1", "-parallel", "1")
	c := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// One slow job (~4s of tiny rounds) to occupy the worker, one parked
	// behind it.
	active, err := c.Submit(ctx, service.JobSpec{
		Workload: "mesh", Controller: "fixed", FixedM: 2, Size: 60000,
	})
	if err != nil {
		t.Fatalf("submit active: %v", err)
	}
	if _, err := c.Submit(ctx, service.JobSpec{
		Workload: "cc", Controller: "hybrid", Size: 300,
	}); err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		st, err := c.Job(ctx, active.ID)
		if err == nil && st.State == service.StateRunning && st.Rounds >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("active job never progressed (last: %+v, err %v)", st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case <-p.done:
		if p.exitErr != nil {
			t.Fatalf("specd exited nonzero: %v\n%s", p.exitErr, strings.Join(p.lines(), "\n"))
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("specd did not exit after SIGTERM:\n%s", strings.Join(p.lines(), "\n"))
	}

	out := strings.Join(p.lines(), "\n")
	for _, want := range []string{
		"draining",
		"(in-flight round completed)",
		"specd: drained cleanly (1 jobs still queued)",
		"specd: exit",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in specd output:\n%s", want, out)
		}
	}
}

// TestSpecloadAgainstSpecd runs the load generator binary against a live
// daemon: every job should be accepted and complete.
func TestSpecloadAgainstSpecd(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}
	specd := buildCmd(t, "specd")
	specload := buildCmd(t, "specload")
	_, base := startSpecd(t, specd, "-workers", "2", "-queue", "16", "-parallel", "1")

	out, err := exec.Command(specload,
		"-addr", base, "-jobs", "4", "-workload", "cc", "-size", "300",
		"-expect-reject=false").CombinedOutput()
	if err != nil {
		t.Fatalf("specload: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "4 submitted, 4 accepted, 0 rejected (429), 0 retried, 0 failed") {
		t.Errorf("unexpected specload summary:\n%s", out)
	}
}
