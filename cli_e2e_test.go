package repro

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmds compiles every command once per test binary into a temp dir
// and returns a name -> path map. Compiling (rather than `go run`)
// keeps the per-case cost down and verifies the binaries link.
func buildCmds(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	names := []string{"ccsim", "controlsim", "bounds", "apprun", "ccprofile", "satsolve"}
	out := make(map[string]string, len(names))
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		out[name] = bin
	}
	return out
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// rejects checks that a command refuses args before it builds anything:
// exit status 2 with want and a usage message, not a panic's goroutine
// trace.
func rejects(t *testing.T, bin, want string, args ...string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("%s %v: %v, want exit status 2\n%s", filepath.Base(bin), args, err, out)
	}
	if strings.Contains(string(out), "goroutine ") || !strings.Contains(string(out), "Usage") ||
		!strings.Contains(string(out), want) {
		t.Errorf("%s %v: want %q and a usage message, got\n%s", filepath.Base(bin), args, want, out)
	}
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e skipped in -short mode")
	}
	bins := buildCmds(t)

	t.Run("bounds", func(t *testing.T) {
		out := run(t, bins["bounds"], "-n", "340", "-d", "16", "-points", "5")
		for _, want := range []string{"Turán", "thm3_exact", "cor2_approx", "Safe initial m"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in output:\n%s", want, out)
			}
		}
		out = run(t, bins["bounds"], "-alpha")
		if !strings.Contains(out, "envelope") {
			t.Error("alpha table missing envelope column")
		}
		out = run(t, bins["bounds"], "-example1")
		if !strings.Contains(out, "expected_committed") || !strings.Contains(out, "\t2\n") {
			t.Errorf("example1 table wrong:\n%s", out)
		}
	})

	t.Run("ccsim", func(t *testing.T) {
		out := run(t, bins["ccsim"], "-n", "300", "-d", "8", "-reps", "20", "-points", "4", "-plot")
		for _, want := range []string{"fig2-conflict-ratio", "worst_case_bound", "random graph"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q", want)
			}
		}
		out = run(t, bins["ccsim"], "-variance", "-n", "300", "-d", "8", "-reps", "30")
		if !strings.Contains(out, "rel_noise") {
			t.Error("variance table missing")
		}
		for _, mode := range []string{"-plot", "-variance", "-runtime"} {
			rejects(t, bins["ccsim"], "-reps must be at least 1", mode, "-reps", "0")
		}
	})

	t.Run("controlsim", func(t *testing.T) {
		out := run(t, bins["controlsim"], "-n", "400", "-rounds", "40")
		if !strings.Contains(out, "fig3-trajectories") || !strings.Contains(out, "hybrid: converged") {
			t.Errorf("fig3 output wrong:\n%s", out)
		}
		out = run(t, bins["controlsim"], "-phases")
		if !strings.Contains(out, "phase-tracking") {
			t.Error("phases output wrong")
		}
		out = run(t, bins["controlsim"], "-efficiency", "-n", "400")
		if !strings.Contains(out, "proc_rounds") {
			t.Error("efficiency output wrong")
		}
	})

	t.Run("apprun", func(t *testing.T) {
		out := run(t, bins["apprun"], "-app", "boruvka", "-size", "150")
		if !strings.Contains(out, "verified against Kruskal") {
			t.Errorf("boruvka not verified:\n%s", out)
		}
		out = run(t, bins["apprun"], "-app", "des", "-size", "100")
		if !strings.Contains(out, "bit-identical") {
			t.Errorf("des not verified:\n%s", out)
		}
		out = run(t, bins["apprun"], "-app", "mesh", "-size", "300", "-ctrl", "model-based")
		if !strings.Contains(out, "bad-remaining=0") {
			t.Errorf("mesh incomplete:\n%s", out)
		}
	})

	t.Run("ccprofile", func(t *testing.T) {
		out := run(t, bins["ccprofile"], "-workload", "cluster", "-size", "120")
		if !strings.Contains(out, "parallelism-profile") {
			t.Error("profile table missing")
		}
		out = run(t, bins["ccprofile"], "-workload", "boruvka", "-size", "150")
		if !strings.Contains(out, "parallelism-profile") {
			t.Error("boruvka profile missing")
		}
		for _, wl := range []string{"boruvka", "random"} {
			rejects(t, bins["ccprofile"], "-reps must be at least 1", "-workload", wl, "-reps", "0")
		}
	})

	// Outside input the CLIs cannot build from: a graph denser than its
	// node count allows, a static drive with no rounds to cap it, or a
	// workload or formula smaller than its generator accepts.
	t.Run("bad-input", func(t *testing.T) {
		for _, c := range []struct {
			cmd, want string
			args      []string
		}{
			{"controlsim", "-rounds must be at least 1", []string{"-rounds", "-1"}},
			{"controlsim", "need n ≥ 65", []string{"-n", "40"}},
			{"controlsim", "need n ≥ 65", []string{"-n", "0"}},
			{"ccsim", "needs -n ≥ 17", []string{"-n", "10", "-d", "16"}},
			{"ccprofile", "needs -n ≥ 17", []string{"-n", "10", "-d", "16"}},
			{"ccprofile", "needs size >= 1", []string{"-workload", "boruvka", "-size", "0"}},
			{"ccprofile", "spin never drains", []string{"-workload", "spin"}},
			{"ccprofile", "unknown workload", []string{"-workload", "nope"}},
			{"apprun", "needs size >= 1", []string{"-app", "boruvka", "-size", "0"}},
			{"bounds", "need n ≥ 1 and 0 ≤ d ≤ n−1", []string{"-n", "0"}},
			{"bounds", "need n ≥ 1 and 0 ≤ d ≤ n−1", []string{"-n", "-5"}},
			{"bounds", "need n ≥ 1 and 0 ≤ d ≤ n−1", []string{"-d", "-1"}},
			{"bounds", "need n ≥ 1 and 0 ≤ d ≤ n−1", []string{"-n", "1", "-d", "1"}},
			{"satsolve", "need n ≥ 3", []string{"-n", "2"}},
			{"satsolve", "alpha ≥ 0", []string{"-alpha", "-1"}},
		} {
			rejects(t, bins[c.cmd], c.want, c.args...)
		}
	})

	t.Run("satsolve", func(t *testing.T) {
		out := run(t, bins["satsolve"], "-n", "150", "-alpha", "2.5")
		if !strings.Contains(out, "SATISFIABLE") {
			t.Errorf("satsolve failed on easy instance:\n%s", out)
		}
	})
}
