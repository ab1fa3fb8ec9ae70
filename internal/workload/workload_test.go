package workload

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// smallSize picks a size per workload that drains in well under a
// second but still exercises multiple rounds.
var smallSize = map[string]int{
	"mesh":    300,
	"boruvka": 150,
	"sp":      60,
	"cluster": 120,
	"des":     100,
	"maxflow": 60,
	"cc":      300,
	"spin":    8, // never drains; skipped by the drain test, bounded elsewhere
	"stable":  64,
}

// TestEveryWorkloadDrainsAndVerifies constructs each registered
// workload, drains it under the hybrid controller, and checks the
// app-specific oracle.
func TestEveryWorkloadDrainsAndVerifies(t *testing.T) {
	for _, name := range Names() {
		name := name
		if name == "spin" {
			continue // never drains by design; covered by TestSpinNeverDrains
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := NewController("hybrid", ControllerParams{Rho: 0.25})
			if err != nil {
				t.Fatalf("controller: %v", err)
			}
			run, err := New(name, Params{Size: smallSize[name], Seed: 1, Parallel: 2})
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			defer run.Stepper.Close()
			if run.Name != name {
				t.Errorf("Run.Name = %q, want %q", run.Name, name)
			}
			res := Drain(context.Background(), run.Stepper, c, 1<<20)
			if run.Stepper.Pending() != 0 {
				t.Fatalf("%d tasks pending after drain (%d rounds)", run.Stepper.Pending(), res.Rounds)
			}
			if res.Rounds < 2 {
				t.Errorf("only %d rounds — size too small to exercise the loop", res.Rounds)
			}
			detail, err := run.Verify()
			if err != nil {
				t.Errorf("verify: %v", err)
			}
			if detail == "" {
				t.Error("verify returned empty detail")
			}
			line := run.summary(res)
			if !strings.HasPrefix(line, name) {
				t.Errorf("summary %q does not start with workload name", line)
			}
			snap := run.Stepper.Snapshot()
			if snap.Launched != snap.Committed+snap.Aborted {
				t.Errorf("snapshot unbalanced: %+v", snap)
			}
		})
	}
}

func TestUnknownNamesError(t *testing.T) {
	if _, err := New("nope", Params{Size: 10}); err == nil {
		t.Error("New(nope) succeeded")
	}
	if Has("nope") {
		t.Error("Has(nope) = true")
	}
	if _, err := NewController("nope", ControllerParams{Rho: 0.25}); err == nil {
		t.Error("NewController(nope) succeeded")
	}
	if HasController("nope") {
		t.Error("HasController(nope) = true")
	}
}

// The random-graph workloads cannot draw more edges than a simple graph
// holds: Validate says so, and New returns the same error instead of
// panicking in the generator.
func TestImpossibleDegreeIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
		ok   bool
	}{
		{"cc", Params{Size: 1, Degree: 16}, false},
		{"cc", Params{Size: 16}, false}, // default degree 16
		{"cc", Params{Size: 17}, true},  // complete graph
		{"cc", Params{Size: 100, Degree: 99}, true},
		{"cc", Params{Size: 100, Degree: 99.5}, false},
		{"stable", Params{Size: 8}, false}, // default degree 8
		{"stable", Params{Size: 9}, true},
		{"mesh", Params{Size: 1, Degree: 1000}, true}, // degree ignored
	} {
		err := Validate(tc.name, tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%s, size %d, degree %v) = %v, want ok=%v", tc.name, tc.p.Size, tc.p.Degree, err, tc.ok)
		}
		if tc.name == "mesh" {
			continue
		}
		tc.p.Seed, tc.p.Parallel = 1, 1
		run, err := New(tc.name, tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("New(%s, size %d, degree %v) error = %v, want ok=%v", tc.name, tc.p.Size, tc.p.Degree, err, tc.ok)
		}
		if run != nil {
			run.Stepper.Close()
		}
	}
}

func TestControllerRegistry(t *testing.T) {
	for _, name := range ControllerNames() {
		if !HasController(name) {
			t.Errorf("HasController(%q) = false", name)
		}
		p := ControllerParams{Rho: 0.25, FixedM: 8}
		c, err := NewController(name, p)
		if err != nil {
			t.Fatalf("NewController(%q): %v", name, err)
		}
		if m := c.M(); m < 1 {
			t.Errorf("%s: initial M() = %d", name, m)
		}
		c.Observe(0.5) // must not panic
	}
	// fixed honors FixedM exactly.
	c, err := NewController("fixed", ControllerParams{FixedM: 17})
	if err != nil {
		t.Fatal(err)
	}
	if c.M() != 17 {
		t.Errorf("fixed M() = %d, want 17", c.M())
	}
	// adaptive controllers reject out-of-range rho.
	for _, rho := range []float64{-0.1, 0, 1, 1.5} {
		if _, err := NewController("hybrid", ControllerParams{Rho: rho}); err == nil {
			t.Errorf("hybrid accepted rho=%v", rho)
		}
	}
}

// TestDeterministicConstruction checks the registry contract: two Runs
// built from equal Params produce identical trajectories when driven
// identically. Serial execution (Parallel=1) removes scheduling noise
// for the workloads whose round outcomes are order-dependent.
func TestDeterministicConstruction(t *testing.T) {
	drive := func() *struct {
		M, Committed []int
		R            []float64
	} {
		c, _ := NewController("hybrid", ControllerParams{Rho: 0.25})
		run, err := New("cc", Params{Size: 400, Seed: 42, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer run.Stepper.Close()
		res := Drain(context.Background(), run.Stepper, c, 1<<20)
		return &struct {
			M, Committed []int
			R            []float64
		}{res.M, res.Committed, res.R}
	}
	a, b := drive(), drive()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identically-seeded cc runs diverged:\n%+v\n%+v", a, b)
	}
}
