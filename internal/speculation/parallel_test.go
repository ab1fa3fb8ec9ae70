package speculation

import (
	"runtime"
	"testing"
	"time"
)

// The executor must genuinely run tasks concurrently: 32 sleeping tasks
// in one round should complete in far less than 32 sleeps of serial
// time. Uses generous margins to stay robust on loaded CI machines.
func TestRoundRunsTasksInParallel(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("single-CPU machine")
	}
	const tasks = 32
	const sleep = 20 * time.Millisecond
	e := NewExecutor(nil)
	e.MaxParallel = tasks
	defer e.Close()
	for i := 0; i < tasks; i++ {
		e.Add(TaskFunc(func(*Ctx) error {
			time.Sleep(sleep)
			return nil
		}))
	}
	start := time.Now()
	st := e.Round(tasks)
	elapsed := time.Since(start)
	if st.Committed != tasks {
		t.Fatalf("committed %d", st.Committed)
	}
	serial := time.Duration(tasks) * sleep
	if elapsed > serial/2 {
		t.Fatalf("round took %v; serial would be %v — no parallelism?", elapsed, serial)
	}
}

func TestOrderedRoundRunsPhase1InParallel(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("single-CPU machine")
	}
	const tasks = 32
	const sleep = 20 * time.Millisecond
	e := NewOrderedExecutor()
	e.MaxParallel = tasks
	defer e.Close()
	for i := 0; i < tasks; i++ {
		e.Add(sleepOrderedTask{k: Key{Time: float64(i)}, d: sleep})
	}
	start := time.Now()
	st := e.Round(tasks)
	elapsed := time.Since(start)
	if st.Committed != tasks {
		t.Fatalf("committed %d", st.Committed)
	}
	serial := time.Duration(tasks) * sleep
	if elapsed > serial/2 {
		t.Fatalf("ordered round took %v; serial would be %v", elapsed, serial)
	}
}

type sleepOrderedTask struct {
	k Key
	d time.Duration
}

func (t sleepOrderedTask) Key() Key { return t.k }
func (t sleepOrderedTask) Run(*Ctx) error {
	time.Sleep(t.d)
	return nil
}
