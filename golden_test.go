package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenApprun pins apprun's stdout at -parallel 1 and 2 to one
// file: a round commits the greedy MIS of its pick order whatever the
// participant count, so every trajectory is a pure function of the seed.
// A byte difference from testdata/apprun means the drive, an executor or
// a seeded generator changed behaviour (or, between the two counts, the
// schedule leaked into an outcome); only on purpose are the files
// regenerated from apprun's own stdout at -parallel 1.
func TestGoldenApprun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short mode")
	}
	bin := buildCmd(t, "apprun")
	files, err := filepath.Glob("testdata/apprun/*.golden")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden files: %v", err)
	}
	for _, f := range files {
		// <app>.golden, or <app>-<mode flag>.golden
		name := strings.TrimSuffix(filepath.Base(f), ".golden")
		app, mode, _ := strings.Cut(name, "-")
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []string{"1", "2"} {
				args := []string{"-parallel", par, "-size", "400", "-app", app}
				if mode != "" {
					args = append(args, "-"+mode)
				}
				if got := run(t, bin, args...); got != string(want) {
					t.Errorf("apprun %v\n got:\n%s\nwant:\n%s", args, got, want)
				}
			}
		})
	}
}

// TestGoldenCcprofile pins ccprofile's drained profiles of mesh,
// boruvka, cluster and des. ccprofile drains on one participant, so each
// profile is a pure function of the seed; a byte difference from
// testdata/ccprofile means an operator's conflicts or an executor's
// commit rule changed.
func TestGoldenCcprofile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short mode")
	}
	bin := buildCmd(t, "ccprofile")
	files, err := filepath.Glob("testdata/ccprofile/*.golden")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden files: %v", err)
	}
	for _, f := range files {
		// <workload>-<size>.golden
		name := strings.TrimSuffix(filepath.Base(f), ".golden")
		wl, size, _ := strings.Cut(name, "-")
		args := []string{"-workload", wl, "-size", size}
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := run(t, bin, args...); got != string(want) {
				t.Errorf("ccprofile %v\n got:\n%s\nwant:\n%s", args, got, want)
			}
		})
	}
}

// TestGoldenControlsim pins controlsim's -fig3, -converge, -ablate,
// -phases and -smartstart tables on a small graph at -workers 1, where
// the Monte Carlo μ probes run on one goroutine and every table is a pure
// function of the seed (at -workers 2 it is not). They cover every
// registered adaptive controller and controlsim's own baselines, driven
// against the model's static round, so a byte difference from
// testdata/controlsim means a controller's decisions or that round
// changed. (-phases fixes its own graph sizes and round counts.)
func TestGoldenControlsim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short mode")
	}
	bin := buildCmd(t, "controlsim")
	for _, exp := range []string{"fig3", "converge", "ablate", "phases", "smartstart"} {
		args := []string{"-" + exp, "-n", "400", "-rounds", "60", "-workers", "1"}
		t.Run(exp, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "controlsim", exp+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := run(t, bin, args...); got != string(want) {
				t.Errorf("controlsim %v\n got:\n%s\nwant:\n%s", args, got, want)
			}
		})
	}
}
