// Command bench is the end-to-end and per-layer benchmark for specd. See
// README.md; BENCHMARK.json at the repository root names this program.
//
//	go run -C bench . -workload small_jobs -seed 1 -seconds 15 -trace 0
//	go run -C bench . -seed 1              # every workload, end to end
//	go run -C bench . -seed 1 -trace 1     # every workload, per layer
//	go run -C bench . -repeat 5            # spread of every end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "every input (job seeds, send schedule) derives from it")
	seconds := flag.Float64("seconds", 15, "length of the measured phases; list lengths and durations scale with it")
	trace := flag.Int("trace", 0, "0: end-to-end metrics against specd subprocesses; 1: per-layer metrics from the in-process traced composition")
	repeat := flag.Int("repeat", 0, "run the chosen workloads N times with seeds seed..seed+N-1 and report each end-to-end metric's spread")
	smoke := flag.Bool("smoke", false, "one-second runs, to check the harness rather than measure")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *printManifest {
		os.Stdout.Write(manifest())
		return
	}
	if *smoke {
		*seconds = 1
	}
	var chosen []*workloadDef
	for i := range workloads {
		if *workload == "all" || *workload == workloads[i].name {
			chosen = append(chosen, &workloads[i])
		}
	}
	if len(chosen) == 0 {
		fatal(2, "unknown workload %q", *workload)
	}
	runs := len(chosen)
	if *repeat > 0 {
		runs *= *repeat
	}

	e, err := newEnv()
	if err != nil {
		fatal(2, "%v", err)
	}
	// Nothing outlives the command: SIGINT/SIGTERM and a hard wall-clock
	// cap both kill every subprocess and remove the scratch directory.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	limit := time.Duration(runs) * (120*time.Second + time.Duration(*seconds*3)*time.Second)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "bench: %v\n", s)
		case <-time.After(limit):
			fmt.Fprintf(os.Stderr, "bench: wall-clock cap of %v exceeded\n", limit)
		}
		e.close()
		os.Exit(4)
	}()

	code := 0
	if *repeat > 0 {
		code = runRepeat(e, chosen, *seed, *seconds, *repeat)
	} else {
		for _, w := range chosen {
			if !runOne(e, w, *seed, *seconds, *trace == 1) {
				code = 1
			}
		}
	}
	e.close()
	os.Exit(code)
}

// runOne runs one workload once and prints its stamp, its metric table
// and, last, the result object. It reports whether every job was correct;
// an invalid run (a server died, the generator fell behind) exits at once
// with no result, so that it is not mistaken for a regression.
func runOne(e *env, w *workloadDef, seed uint64, seconds float64, traced bool) bool {
	printStamp(e, w, seed, seconds, traced)
	var res result
	var samples map[string]sample
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		res, samples, err = runTraced(e, w, seed, seconds)
	} else {
		res, samples, err = runEndToEnd(e, w, seed, seconds)
	}
	if err != nil {
		e.close()
		fatal(3, "%s: %v", w.name, err)
	}
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %g%%", d.Bound*100)
		}
		if raw, ok := samples["raw "+d.Name]; ok {
			bound += fmt.Sprintf("  (raw %.4f at machine slowness %.3f)", raw.v, samples["machine.slowness"].v)
		}
		fmt.Printf("%-44s %14.4f %-6s %-6s n=%-6d%s\n", d.Name, samples[d.Name].v, d.Unit, d.Better, samples[d.Name].n, bound)
	}
	line, err := json.Marshal(res)
	if err != nil {
		e.close()
		fatal(3, "%s: %v", w.name, err)
	}
	fmt.Println(string(line))
	return res.Correct
}

// printStamp records what produced the numbers that follow.
func printStamp(e *env, w *workloadDef, seed uint64, seconds float64, traced bool) {
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%t\n", w.name, seed, seconds, traced)
	fmt.Printf("# why: %s\n", w.why)
	fmt.Printf("# gomaxprocs=%d numcpu=%d go=%s commit=%s kernel=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.Version(), output(e.root, "git", "rev-parse", "--short", "HEAD"), output("", "uname", "-sr"))
	fmt.Printf("# state dirs on %s (fsync numbers are this machine's disk, not a property of specd)\n", fsType(e.work))
	if w.tenants {
		b, _ := json.Marshal(tenantsFile)
		fmt.Printf("# tenants %s\n", b)
	}
}

func output(dir, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding path, from /proc/mounts (the
// longest mount point that prefixes it).
func fsType(path string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && strings.HasPrefix(path, f[1]) && len(f[1]) > len(best) {
			best, typ = f[1], f[2]+" ("+f[0]+")"
		}
	}
	return typ
}

// manifest renders BENCHMARK.json from the tables in this program.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	b, _ := json.MarshalIndent(map[string]any{
		"command":     []string{"go", "run", "-C", "bench", "."},
		"paths":       []string{"bench"},
		"run_seconds": 15,
		"workloads":   wls,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}, "", "  ")
	return append(b, '\n')
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}
