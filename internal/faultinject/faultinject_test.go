package faultinject

import (
	"errors"
	"testing"
	"time"

	"repro/internal/speculation"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{PanicRate: -0.1},
		{ErrorRate: 1.5},
		{PanicRate: 0.6, ErrorRate: 0.3, PoisonRate: 0.2},
		{TransientAttempts: -1},
		{Delay: -time.Second},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v) validated", i, c)
		}
	}
	ok := Config{Seed: 1, PanicRate: 0.05, ErrorRate: 0.05, PoisonRate: 0.03,
		TransientAttempts: 2, DelayRate: 0.1, Delay: time.Millisecond}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestPlansAreDeterministic(t *testing.T) {
	c := Config{Seed: 42, PanicRate: 0.2, ErrorRate: 0.2, PoisonRate: 0.1,
		TransientAttempts: 3, DelayRate: 0.25}
	for i := int64(0); i < 1000; i++ {
		if a, b := c.planFor(i), c.planFor(i); a != b {
			t.Fatalf("plan %d unstable: %+v vs %+v", i, a, b)
		}
	}
	// A different seed must produce a different victim set.
	c2 := c
	c2.Seed = 43
	same := 0
	for i := int64(0); i < 1000; i++ {
		if c.planFor(i) == c2.planFor(i) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("seed has no effect on plans")
	}
}

func TestRatesRoughlyHold(t *testing.T) {
	c := Config{Seed: 7, PanicRate: 0.1, ErrorRate: 0.1, PoisonRate: 0.05,
		TransientAttempts: 2}
	const n = 20000
	var panics, errs, poisons int
	for i := int64(0); i < n; i++ {
		p := c.planFor(i)
		switch {
		case p.poison:
			poisons++
		case p.fails > 0 && p.panics:
			panics++
		case p.fails > 0:
			errs++
		}
	}
	check := func(name string, got int, want float64) {
		frac := float64(got) / n
		if frac < want*0.8 || frac > want*1.2 {
			t.Errorf("%s fraction %.4f, want ~%.4f", name, frac, want)
		}
	}
	check("poison", poisons, 0.05)
	check("panic", panics, 0.1)
	check("error", errs, 0.1)
	if got := c.PoisonPlanCount(n); got != poisons {
		t.Fatalf("PoisonPlanCount = %d, counted %d", got, poisons)
	}
}

func TestZeroTransientAttemptsDisablesTransients(t *testing.T) {
	c := Config{Seed: 3, PanicRate: 0.5, ErrorRate: 0.5}
	for i := int64(0); i < 500; i++ {
		if p := c.planFor(i); p.fails != 0 {
			t.Fatalf("plan %d fails %d with TransientAttempts=0", i, p.fails)
		}
	}
}

// TestPoisonCountExactThroughExecutor is the determinism contract the
// chaos tests rely on: run a fixed task population through a real
// executor with injection and the poisoned count equals
// PoisonPlanCount exactly, on every run, at any parallelism.
func TestPoisonCountExactThroughExecutor(t *testing.T) {
	cfg := Config{Seed: 99, PanicRate: 0.1, ErrorRate: 0.1, PoisonRate: 0.08,
		TransientAttempts: 2}
	const n = 400
	want := cfg.PoisonPlanCount(n)
	if want == 0 {
		t.Fatal("test needs at least one poison plan; pick another seed")
	}
	for trial := 0; trial < 3; trial++ {
		in, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := speculation.NewExecutor(nil)
		e.TaskRetries = 3
		e.WrapTask = in.WrapTask
		for i := 0; i < n; i++ {
			e.Add(speculation.TaskFunc(func(*speculation.Ctx) error { return nil }))
		}
		for e.Pending() > 0 {
			e.Round(32)
		}
		if got := e.TotalPoisoned(); got != int64(want) {
			t.Fatalf("trial %d: poisoned %d, want %d", trial, got, want)
		}
		if in.PoisonPlanned() != int64(want) {
			t.Fatalf("trial %d: injector planned %d poisons, want %d",
				trial, in.PoisonPlanned(), want)
		}
		if e.TotalCommitted() != int64(n-want) {
			t.Fatalf("trial %d: committed %d, want %d", trial,
				e.TotalCommitted(), n-want)
		}
		// Every injected error wraps the sentinel.
		for _, rec := range e.PoisonedTasks() {
			if rec.Attempts != 4 { // budget 3 retries + first attempt
				t.Fatalf("poisoned record attempts %d, want 4", rec.Attempts)
			}
		}
	}
}

// TestTransientVictimsRecover: with TransientAttempts clamped at or
// below the budget, no transient victim ever poisons.
func TestTransientVictimsRecover(t *testing.T) {
	cfg := Config{Seed: 5, PanicRate: 0.3, ErrorRate: 0.3, TransientAttempts: 2}
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := speculation.NewExecutor(nil)
	e.TaskRetries = 2
	e.WrapTask = in.WrapTask
	const n = 200
	for i := 0; i < n; i++ {
		e.Add(speculation.TaskFunc(func(*speculation.Ctx) error { return nil }))
	}
	for e.Pending() > 0 {
		e.Round(16)
	}
	if e.TotalPoisoned() != 0 {
		t.Fatalf("poisoned %d transient-only victims", e.TotalPoisoned())
	}
	if e.TotalCommitted() != n {
		t.Fatalf("committed %d, want %d", e.TotalCommitted(), n)
	}
	if in.Panics() == 0 || in.Errors() == 0 {
		t.Fatalf("no faults fired: panics=%d errors=%d", in.Panics(), in.Errors())
	}
}

func TestInjectedErrorWrapsSentinel(t *testing.T) {
	in, err := New(Config{Seed: 1, ErrorRate: 1, TransientAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	task := in.WrapTask(speculation.TaskFunc(func(*speculation.Ctx) error { return nil }))
	if e := task.Run(nil); !errors.Is(e, ErrInjected) {
		t.Fatalf("first attempt error %v does not wrap ErrInjected", e)
	}
	if e := task.Run(nil); e != nil {
		t.Fatalf("second attempt should recover, got %v", e)
	}
}

func TestDelayInjection(t *testing.T) {
	in, err := New(Config{Seed: 2, DelayRate: 1, Delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	task := in.WrapTask(speculation.TaskFunc(func(*speculation.Ctx) error { return nil }))
	start := time.Now()
	if e := task.Run(nil); e != nil {
		t.Fatal(e)
	}
	if d := time.Since(start); d < time.Millisecond {
		t.Fatalf("task returned in %v, want >= 1ms delay", d)
	}
	if in.Delays() != 1 {
		t.Fatalf("Delays = %d, want 1", in.Delays())
	}
}
