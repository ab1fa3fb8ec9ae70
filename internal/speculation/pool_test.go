package speculation

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestWorkerPoolStress hammers the pooled executor: many rounds of many
// tiny conflicting tasks while other goroutines keep Adding work. Run
// under -race this exercises every executor synchronization edge (the
// work-set lock, the round's walk, batched requeue, context recycling).
func TestWorkerPoolStress(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *Executor
	}{
		{"pending", func() *Executor { return NewExecutor(nil) }},
		{"random-ws", func() *Executor { return NewExecutor(rng.New(7).Intn) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk()
			e.MaxParallel = runtime.NumCPU() * 2
			defer e.Close()

			// Shared items so a healthy fraction of launches conflict
			// and flow through the walk's aborts + batched requeue.
			items := make([]*Item, 17)
			for i := range items {
				items[i] = NewItem(int64(i))
			}
			var committed atomic.Int64
			mkTask := func(k int) Task {
				return TaskFunc(func(ctx *Ctx) error {
					if err := ctx.Acquire(items[k%len(items)]); err != nil {
						return err
					}
					ctx.OnCommit(func() { committed.Add(1) })
					return nil
				})
			}

			const seedTasks = 400
			const adders = 4
			const addedEach = 200
			for i := 0; i < seedTasks; i++ {
				e.Add(mkTask(i))
			}
			// Concurrent producers racing against in-flight rounds.
			var wg sync.WaitGroup
			for a := 0; a < adders; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					for i := 0; i < addedEach; i++ {
						e.Add(mkTask(a*31 + i))
					}
				}(a)
			}
			rounds := 0
			for {
				st := e.Round(64)
				rounds++
				if st.Launched == 0 {
					// Producers may still be running; only stop once
					// they are done and the set is truly empty.
					wg.Wait()
					if e.Pending() == 0 {
						break
					}
				}
				if rounds > 200000 {
					t.Fatal("stress run did not drain")
				}
			}
			want := int64(seedTasks + adders*addedEach)
			if committed.Load() != want {
				t.Fatalf("committed %d tasks, want %d", committed.Load(), want)
			}
			if e.TotalCommitted() != want {
				t.Fatalf("TotalCommitted = %d, want %d", e.TotalCommitted(), want)
			}
			if e.TotalLaunched() != e.TotalCommitted()+e.TotalAborted() {
				t.Fatalf("launched %d != committed %d + aborted %d",
					e.TotalLaunched(), e.TotalCommitted(), e.TotalAborted())
			}
			// A round attempt never locks an item.
			for _, it := range items {
				if it.Owner() != noOwner {
					t.Fatalf("item %d still owned by %d", it.Seq, it.Owner())
				}
			}
		})
	}
}

// TestWorkerPoolExactlyOnce drives one dispatch record over many
// dispatches of every small size: each index runs exactly once, no
// callback of a dispatch runs after that dispatch has returned (a helper
// still mid-chunk of an earlier round would), at most size callbacks are
// ever in flight, a size of one neither wakes nor starts a helper, and at
// every larger size a helper joins a round in progress.
func TestWorkerPoolExactlyOnce(t *testing.T) {
	for size := 1; size <= 4; size++ {
		var d dispatchRecord
		started, wakes, joins := helpers.started.Load(), helpers.wakes.Load(), helpers.joins.Load()
		dispatchMany(t, &d, size, 5000) // 20 000 in all
		if size == 1 && (helpers.started.Load() != started || helpers.wakes.Load() != wakes) {
			t.Fatalf("size 1: the pool grew %d -> %d helpers, woke %d", started, helpers.started.Load(), helpers.wakes.Load()-wakes)
		}
		if size > 1 && helpers.joins.Load() == joins {
			t.Fatalf("size %d: no helper ran an index in 5000 dispatches", size)
		}
	}
}

// TestWorkerPoolSharedByTwoExecutors runs the checks of
// TestWorkerPoolExactlyOnce on two records at once, from two goroutines,
// so their rounds compete for the same helpers and stale tokens of one
// round meet later rounds of the same record.
func TestWorkerPoolSharedByTwoExecutors(t *testing.T) {
	var wg sync.WaitGroup
	for _, size := range []int{2, 3} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var d dispatchRecord
			dispatchMany(t, &d, size, 3000)
		}()
	}
	wg.Wait()
}

// dispatchMany runs dispatches of every n in [1, 300] on d at size
// participants and reports, through t.Errorf, an index that did not run
// exactly once, a callback that ran outside its dispatch, and more than
// size callbacks in flight.
func dispatchMany(t *testing.T, d *dispatchRecord, size, dispatches int) {
	const maxN = 300
	const slow = 100 * time.Microsecond // longer than a parked helper takes to wake on most boxes
	var (
		ran          [maxN]atomic.Int32
		current      atomic.Int64 // the dispatch in progress
		others       atomic.Int32 // indices other than 0 run in it
		inFlight     atomic.Int32
		peak, strays atomic.Int32
	)
	for k := 0; k < dispatches; k++ {
		n, gen := k%maxN+1, int64(k)
		current.Store(gen)
		others.Store(0)
		d.dispatch(size, n, func(i int) {
			if current.Load() != gen {
				strays.Add(1)
			}
			c := inFlight.Add(1)
			for pk := peak.Load(); c > pk && !peak.CompareAndSwap(pk, c); pk = peak.Load() {
			}
			// The caller claims chunk 0 first, and a parked helper takes
			// a while to wake. A slow index 0, which waits for a helper
			// to run another index, lets one join and leave while the
			// round is still open; a slow last index in the next dispatch
			// keeps a helper mid-chunk when the caller runs out of chunks.
			if k%4 < 2 && i == 0 && size > 1 {
				for start := time.Now(); others.Load() == 0 && time.Since(start) < 2*slow; {
				}
			}
			if k%4 == 1 && i == n-1 {
				for start := time.Now(); time.Since(start) < slow; {
				}
			}
			if i != 0 {
				others.Add(1)
			}
			ran[i].Add(1)
			inFlight.Add(-1)
			if current.Load() != gen {
				strays.Add(1)
			}
		}, false)
		current.Store(-1)
		if c := inFlight.Load(); c != 0 {
			t.Errorf("size %d, dispatch %d (n=%d): %d callbacks still running after return", size, k, n, c)
			return
		}
		for i := 0; i < n; i++ {
			if got := ran[i].Swap(0); got != 1 {
				t.Errorf("size %d, dispatch %d (n=%d): index %d ran %d times", size, k, n, i, got)
				return
			}
		}
	}
	if s := strays.Load(); s != 0 {
		t.Errorf("size %d: %d callbacks ran outside their dispatch", size, s)
	}
	if pk := peak.Load(); pk > int32(size) {
		t.Errorf("size %d: %d callbacks in flight at once", size, pk)
	}
}

// TestWorkerPoolBacksOffLateHelpers: rounds of no-op tasks end long before
// a parked helper can wake, so the record stops waking one. Each dispatch
// waits for the helpers to take any token it was sent, so a record that
// woke one every round could. From the 64th dispatch on, fewer than one in
// eight may wake a helper.
func TestWorkerPoolBacksOffLateHelpers(t *testing.T) {
	const dispatches, warmup = 4096, 64
	var d dispatchRecord
	wakes := 0
	for k := 0; k < dispatches; k++ {
		before := helpers.wakes.Load()
		d.dispatch(2, 64, func(int) {}, false)
		if k >= warmup && helpers.wakes.Load() > before {
			wakes++
		}
		for len(helpers.wake) > 0 {
			runtime.Gosched()
		}
	}
	if limit := (dispatches - warmup) / 8; wakes >= limit {
		t.Fatalf("%d of %d dispatches after the first %d woke a helper, want fewer than %d",
			wakes, dispatches-warmup, warmup, limit)
	}
}

// TestWorkerPoolWakesHelpersThatArrive: index 0 of every round blocks until
// some other index has run, so each round finishes only once a helper has
// joined it. Every dispatch must wake a helper and see it join: the
// backoff never leaves such a round to the caller alone.
func TestWorkerPoolWakesHelpersThatArrive(t *testing.T) {
	const dispatches = 512
	var d dispatchRecord
	for k := 0; k < dispatches; k++ {
		other := make(chan struct{}, 1)
		n := k%63 + 2
		wakes, joins := HelperCounts()
		d.dispatch(2, n, func(i int) {
			if i != 0 {
				select {
				case other <- struct{}{}:
				default:
				}
				return
			}
			select {
			case <-other:
			case <-time.After(10 * time.Second):
				t.Errorf("dispatch %d (n=%d): index 0 waited 10 s for a helper", k, n)
			}
		}, false)
		if w, j := HelperCounts(); w-wakes != 1 || j-joins != 1 {
			t.Fatalf("dispatch %d (n=%d): woke %d helpers, %d joined; want 1 and 1", k, n, w-wakes, j-joins)
		}
	}
}

// TestWorkerPoolResize verifies that changing MaxParallel between
// rounds swaps in a right-sized pool without losing work.
func TestWorkerPoolResize(t *testing.T) {
	e := NewExecutor(nil)
	defer e.Close()
	for i := 0; i < 300; i++ {
		e.Add(TaskFunc(func(ctx *Ctx) error { return nil }))
	}
	for _, par := range []int{1, 4, 2, 8} {
		e.MaxParallel = par
		e.Round(50)
	}
	e.MaxParallel = 3
	for e.Pending() > 0 {
		e.Round(50)
	}
	if e.TotalCommitted() != 300 {
		t.Fatalf("committed %d, want 300", e.TotalCommitted())
	}
}

// TestCtxPoolingNoLeak proves a recycled Ctx carries nothing across
// attempts: no spawns, no commit actions, no acquired items. Tasks
// deliberately abort after registering side effects, then later
// attempts inspect the context they receive.
func TestCtxPoolingNoLeak(t *testing.T) {
	e := NewExecutor(nil)
	e.MaxParallel = 2
	defer e.Close()

	blocker := NewItem(99)
	var spawnedRuns atomic.Int64

	// Round 1: m tasks all register a spawn + a commit action, then
	// conflict on the same item (all but the winner abort).
	dirty := TaskFunc(func(ctx *Ctx) error {
		ctx.Spawn(TaskFunc(func(*Ctx) error {
			spawnedRuns.Add(1)
			return nil
		}))
		ctx.OnCommit(func() {})
		return ctx.Acquire(blocker)
	})
	const m = 16
	for i := 0; i < m; i++ {
		e.Add(dirty)
	}
	st := e.Round(m)
	if st.Committed != 1 || st.Aborted != m-1 {
		t.Fatalf("round1: committed=%d aborted=%d, want 1/%d", st.Committed, st.Aborted, m-1)
	}

	// Drain the requeued aborts plus the winner's spawn. If pooling
	// leaked state, stale spawns would be re-enqueued and inflate the
	// counts.
	for e.Pending() > 0 {
		e.Round(m)
	}
	// Each of the m dirty tasks eventually commits exactly once and its
	// spawn runs exactly once — no duplicates from recycled contexts.
	if got := spawnedRuns.Load(); got != m {
		t.Fatalf("spawned task ran %d times, want %d", got, m)
	}
	if e.TotalCommitted() != 2*m { // m dirty + m spawned
		t.Fatalf("TotalCommitted = %d, want %d", e.TotalCommitted(), 2*m)
	}

	// Inspect the recycled contexts directly: after a full drain every
	// cached context must be scrubbed empty.
	for i, c := range e.scratch.ctxs {
		if len(c.acquired) != 0 || len(c.spawned) != 0 || len(c.onCommit) != 0 {
			t.Fatalf("cached ctx %d not scrubbed: %+v", i, c)
		}
		if c.locks || c.id != 0 {
			t.Fatalf("cached ctx %d retains attempt state (id=%d locks=%v)", i, c.id, c.locks)
		}
		// The backing arrays must hold no stale references either —
		// scrub zeroes the full capacity, not just the length.
		for _, it := range c.acquired[:cap(c.acquired)] {
			if it != nil {
				t.Fatal("stale *Item reference survives in recycled ctx capacity")
			}
		}
		for _, task := range c.spawned[:cap(c.spawned)] {
			if task != nil {
				t.Fatal("stale spawned task survives in recycled ctx capacity")
			}
		}
	}
}

// TestPoolSizeDoesNotMoveConflictRatio keeps the evidence the
// goroutine-per-task branch was deleted on: at a fixed m the round's
// conflict ratio is set by which m tasks were drawn, not by how many
// workers ran them, because every lock is held to the barrier. One
// worker, one per CPU and one per task must agree on mean r over the
// seeds; the per-seed spread at the parent was ±0.03 around 0.45.
func TestPoolSizeDoesNotMoveConflictRatio(t *testing.T) {
	const n, d, m, rounds, seeds, tolerance = 1000, 64.0, 32, 15, 8, 0.03
	meanR := func(maxParallel int) float64 {
		sum := 0.0
		for seed := uint64(1); seed <= seeds; seed++ {
			g := graph.RandomWithAvgDegree(rng.New(seed), n, d)
			e := NewGraphExecutor(NewGraphWorkload(g), rng.New(seed+100))
			e.MaxParallel = maxParallel
			var st RoundStats
			for i := 0; i < rounds; i++ {
				st.add(e.Round(m))
			}
			e.Close()
			sum += st.ConflictRatio()
		}
		return sum / seeds
	}
	serial := meanR(1)
	if serial < 0.3 {
		t.Fatalf("mean r = %.3f with one worker: the fixture no longer conflicts", serial)
	}
	for _, maxParallel := range []int{0, runtime.NumCPU(), m} {
		if r := meanR(maxParallel); math.Abs(r-serial) > tolerance {
			t.Errorf("MaxParallel=%d: mean r = %.3f, one worker gives %.3f (tolerance %.2f)",
				maxParallel, r, serial, tolerance)
		}
	}
}

// TestPooledRoundAllocatesNothing pins the steady-state conflict-heavy
// round — take, dispatch, abort, requeue, top-up — at zero allocations.
func TestPooledRoundAllocatesNothing(t *testing.T) {
	e, topUp := conflictHeavyExecutor(256, 2)
	defer e.Close()
	round := func() { topUp(e.Round(256).Committed) }
	round() // size the scratch, the work-set and the pool
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state round allocates %.1f times, want 0", allocs)
	}
}

// TestFinishedTasksAreCollectable checks that nothing the executor keeps
// between rounds — the work-set's spare capacity, the round scratch —
// still references a task once it has committed or been poisoned, however
// large an earlier round was.
func TestFinishedTasksAreCollectable(t *testing.T) {
	e := NewExecutor(nil)
	e.MaxParallel = 2
	e.TaskRetries = -1
	defer e.Close()
	it := NewItem(0)
	for i := 0; i < 64; i++ {
		switch i % 3 {
		case 0:
			e.Add(TaskFunc(func(ctx *Ctx) error { return ctx.Acquire(it) })) // mostly aborts
		case 1:
			e.Add(TaskFunc(func(ctx *Ctx) error { // commits, spawns, acts
				ctx.Spawn(TaskFunc(func(*Ctx) error { return nil }))
				ctx.OnCommit(func() {})
				return nil
			}))
		default:
			e.Add(TaskFunc(func(*Ctx) error { return errors.New("boom") })) // poisoned
		}
	}
	e.Round(64) // the large round
	for e.Pending() > 0 {
		e.Round(2)
	}
	s := &e.scratch
	for name, left := range map[string]int{
		"pending": countNonZero(e.pending), "batch": countNonZero(s.batch),
		"requeue": countNonZero(s.requeue), "spawned": countNonZero(s.spawned),
	} {
		if left != 0 {
			t.Errorf("%s keeps %d finished entries reachable", name, left)
		}
	}
	for i, fn := range s.actions[:cap(s.actions)] {
		if fn != nil {
			t.Errorf("actions[%d] keeps a commit action reachable", i)
		}
	}
	for i, err := range s.errs[:cap(s.errs)] {
		if err != nil {
			t.Errorf("errs[%d] keeps %v reachable", i, err)
		}
	}
}

// countNonZero counts the entries still set anywhere in qs's capacity.
func countNonZero(qs []queued) (n int) {
	for _, q := range qs[:cap(qs)] {
		if q.t != nil {
			n++
		}
	}
	return n
}

// TestWorkerPoolStaysBounded counts the process's helpers through the
// pool's own counter while executors run rounds at MaxParallel up to 8:
// concurrently and in sequence, unordered and ordered, closed and
// abandoned. The set may grow to max(GOMAXPROCS, 8) − 1 and no further,
// and an abandoned executor stays collectable: nothing the pool keeps
// between dispatches holds it.
func TestWorkerPoolStaysBounded(t *testing.T) {
	const maxPar = 8
	bound := max(helpers.started.Load(), int64(max(runtime.GOMAXPROCS(0), maxPar)-1))
	check := func(when string) {
		if n := helpers.started.Load(); n > bound {
			t.Errorf("%s: %d helpers, want at most %d", when, n, bound)
		}
	}
	var abandoned []weak.Pointer[Executor]
	var mu sync.Mutex
	run := func(k int) {
		e := NewExecutor(nil)
		e.MaxParallel = k%maxPar + 1
		for i := 0; i < 200; i++ {
			e.Add(TaskFunc(func(*Ctx) error { return nil }))
		}
		for e.Pending() > 0 {
			e.Round(32)
		}
		o := NewOrderedExecutor()
		o.MaxParallel = maxPar - k%maxPar
		for i := 0; i < 64; i++ {
			o.Add(sleepOrderedTask{k: Key{Time: float64(i)}})
		}
		for o.Pending() > 0 {
			o.Round(16)
		}
		if e.TotalCommitted() != 200 || o.TotalCommitted() != 64 {
			t.Errorf("executor %d committed %d and %d, want 200 and 64", k, e.TotalCommitted(), o.TotalCommitted())
		}
		check(fmt.Sprintf("after executor %d", k))
		if k%2 == 0 {
			e.Close()
			return
		}
		mu.Lock()
		abandoned = append(abandoned, weak.Make(e))
		mu.Unlock()
	}
	for k := 0; k < 16; k++ {
		run(k)
	}
	var wg sync.WaitGroup
	for k := 16; k < 48; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(k)
		}()
	}
	wg.Wait()
	check("at the end")
	for i := 0; ; i++ {
		runtime.GC()
		live := 0
		for _, w := range abandoned {
			if w.Value() != nil {
				live++
			}
		}
		if live == 0 {
			break
		}
		if i == 200 {
			t.Fatalf("%d of %d abandoned executors still reachable", live, len(abandoned))
		}
		time.Sleep(time.Millisecond)
	}
}
