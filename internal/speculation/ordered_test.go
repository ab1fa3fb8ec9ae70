package speculation

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/control"
)

// testOrderedTask is a configurable ordered task for executor tests.
type testOrderedTask struct {
	key    Key
	claims []*Item
	spawn  []OrderedTask
	effect func()
	ran    *atomic.Int32
}

func (t *testOrderedTask) Key() Key { return t.key }

func (t *testOrderedTask) Run(ctx *OrderedCtx) error {
	if t.ran != nil {
		t.ran.Add(1)
	}
	ctx.Claim(t.claims...)
	for _, s := range t.spawn {
		ctx.Spawn(s)
	}
	if t.effect != nil {
		ctx.OnCommit(t.effect)
	}
	return nil
}

func key(tm float64) Key { return Key{Time: tm} }

func TestKeyOrdering(t *testing.T) {
	if !key(1).Less(key(2)) || key(2).Less(key(1)) {
		t.Fatal("time ordering broken")
	}
	a := Key{Time: 1, Tie: 3}
	b := Key{Time: 1, Tie: 7}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("tie ordering broken")
	}
	if MaxKey.Less(key(1e300)) {
		t.Fatal("MaxKey not maximal")
	}
}

func TestOrderedCommitsInPriorityOrder(t *testing.T) {
	e := NewOrderedExecutor()
	var order []int
	for _, tm := range []float64{3, 1, 2} {
		tm := tm
		e.Add(&testOrderedTask{key: key(tm), effect: func() { order = append(order, int(tm)) }})
	}
	st := e.Round(3)
	if st.Committed != 3 {
		t.Fatalf("stats %+v", st)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("commit order %v, want %v", order, want)
		}
	}
}

func TestOrderedConflictEarliestWins(t *testing.T) {
	e := NewOrderedExecutor()
	it := NewItem(0)
	var committed []float64
	mk := func(tm float64) *testOrderedTask {
		return &testOrderedTask{
			key:    key(tm),
			claims: []*Item{it},
			effect: func() { committed = append(committed, tm) },
		}
	}
	e.Add(mk(2))
	e.Add(mk(1))
	e.Add(mk(3))
	st := e.Round(3)
	// The earliest commits; the second conflicts; the third is cut off
	// by the prefix rule (counted premature).
	if st.Committed != 1 || st.Aborted != 2 || st.Premature != 1 {
		t.Fatalf("stats %+v", st)
	}
	if len(committed) != 1 || committed[0] != 1 {
		t.Fatalf("committed %v, want earliest only", committed)
	}
	// Losers retry in priority order on later rounds.
	st = e.Round(1)
	if st.Committed != 1 || committed[1] != 2 {
		t.Fatalf("second round: %+v, committed %v", st, committed)
	}
	st = e.Round(5)
	if st.Committed != 1 || committed[2] != 3 {
		t.Fatalf("third round: %+v, committed %v", st, committed)
	}
	if e.Pending() != 0 {
		t.Fatal("not drained")
	}
}

func TestOrderedPrematureRequeued(t *testing.T) {
	e := NewOrderedExecutor()
	var committed []float64
	note := func(tm float64) func() {
		return func() { committed = append(committed, tm) }
	}
	spawned := &testOrderedTask{key: key(1.5), effect: note(1.5)}
	// Task 1 spawns work at t=1.5; task 2 (t=2) ran in the same round
	// and must be detected as premature.
	e.Add(&testOrderedTask{key: key(1), spawn: []OrderedTask{spawned}, effect: note(1)})
	e.Add(&testOrderedTask{key: key(2), effect: note(2)})
	st := e.Round(2)
	if st.Committed != 1 || st.Premature != 1 || st.Spawned != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Drain: spawned (1.5) then the premature retry (2).
	for e.Pending() > 0 {
		e.Round(4)
	}
	want := []float64{1, 1.5, 2}
	for i, v := range want {
		if committed[i] != v {
			t.Fatalf("commit sequence %v, want %v", committed, want)
		}
	}
}

func TestOrderedSpawnCausalityPanics(t *testing.T) {
	e := NewOrderedExecutor()
	bad := &testOrderedTask{key: key(0.5)}
	e.Add(&testOrderedTask{key: key(1), spawn: []OrderedTask{bad}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for spawn before parent")
		}
	}()
	e.Round(1)
}

func TestOrderedIndependentTasksAllCommit(t *testing.T) {
	e := NewOrderedExecutor()
	var ran atomic.Int32
	for i := 0; i < 64; i++ {
		e.Add(&testOrderedTask{key: key(float64(i)), claims: []*Item{NewItem(int64(i))}, ran: &ran})
	}
	st := e.Round(64)
	if st.Committed != 64 || st.Aborted != 0 {
		t.Fatalf("stats %+v", st)
	}
	if ran.Load() != 64 {
		t.Fatalf("phase-1 executions %d", ran.Load())
	}
}

func TestOrderedEmptyRound(t *testing.T) {
	e := NewOrderedExecutor()
	st := e.Round(8)
	if st.Launched != 0 || st.ConflictRatio() != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOrderedMaxParallel(t *testing.T) {
	e := NewOrderedExecutor()
	e.MaxParallel = 2
	var cur, peak atomic.Int32
	for i := 0; i < 16; i++ {
		e.Add(concTask{k: key(float64(i)), cur: &cur, peak: &peak})
	}
	st := e.Round(16)
	if st.Committed != 16 {
		t.Fatalf("committed %d", st.Committed)
	}
	if peak.Load() > 2 {
		t.Fatalf("peak concurrency %d > MaxParallel=2", peak.Load())
	}
}

type concTask struct {
	k         Key
	cur, peak *atomic.Int32
}

func (t concTask) Key() Key { return t.k }
func (t concTask) Run(*OrderedCtx) error {
	c := t.cur.Add(1)
	for {
		p := t.peak.Load()
		if c <= p || t.peak.CompareAndSwap(p, c) {
			break
		}
	}
	for i := 0; i < 500; i++ {
		_ = i
	}
	t.cur.Add(-1)
	return nil
}

// claimOnlyOrdered returns an ordered executor holding m tasks that each
// claim an item of their own, and the function that runs one round of m
// and puts the committed tasks back — the fixed per-round cost with no
// operator work behind it.
func claimOnlyOrdered(m, maxPar int) (*OrderedExecutor, func()) {
	e := NewOrderedExecutor()
	e.MaxParallel = maxPar
	tasks := make([]OrderedTask, m)
	for i := range tasks {
		tasks[i] = &testOrderedTask{key: key(float64(i)), claims: []*Item{NewItem(int64(i))}}
		e.Add(tasks[i])
	}
	return e, func() {
		if st := e.Round(m); st.Committed != m {
			panic(fmt.Sprintf("claim-only round committed %d of %d", st.Committed, m))
		}
		for _, t := range tasks {
			e.Add(t)
		}
	}
}

// TestOrderedRoundAllocatesNothing pins the steady-state ordered round —
// pop, phase 1 on the pool, the commit walk, requeue — at zero
// allocations, like TestPooledRoundAllocatesNothing for the unordered one.
func TestOrderedRoundAllocatesNothing(t *testing.T) {
	for _, m := range []int{1, 2, 4, 16} {
		e, round := claimOnlyOrdered(m, 2)
		round() // size the scratch, the heap and the pool
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("m=%d: steady-state ordered round allocates %.1f times, want 0", m, allocs)
		}
		e.Close()
	}
}

// deepOrdered is claimOnlyOrdered over a work-set depth tasks deep — the
// shape of a des drain, where each round takes the m earliest events off
// a heap of thousands and their successors go in at the far end. Each
// committed task re-enters with its key moved past every pending one, so
// the heap keeps its depth and the round allocates nothing.
func deepOrdered(m, depth, maxPar int) (*OrderedExecutor, func()) {
	e := NewOrderedExecutor()
	e.MaxParallel = maxPar
	tasks := make([]*testOrderedTask, depth)
	for i := range tasks {
		tasks[i] = &testOrderedTask{key: key(float64(i)), claims: []*Item{NewItem(int64(i))}}
		e.Add(tasks[i])
	}
	next := 0
	return e, func() {
		if st := e.Round(m); st.Committed != m {
			panic(fmt.Sprintf("deep round committed %d of %d", st.Committed, m))
		}
		for j := 0; j < m; j++ {
			t := tasks[next]
			t.key.Time += float64(depth)
			e.Add(t)
			next = (next + 1) % depth
		}
	}
}

// TestOrderedDeepRoundAllocatesNothing is TestOrderedRoundAllocatesNothing
// at des's shape: m = 2 off a heap of 4096 pending tasks.
func TestOrderedDeepRoundAllocatesNothing(t *testing.T) {
	e, round := deepOrdered(2, 4096, 2)
	defer e.Close()
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("steady-state deep ordered round allocates %.1f times, want 0", allocs)
	}
}

// TestOrderedPopsInKeyOrder: with keys that share Times and differ in
// Tie, losers requeued and spawns arriving mid-drain, every commit comes
// in key order — and the work-set heap pops exactly as container/heap
// would, equal keys included.
func TestOrderedPopsInKeyOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 9))
	items := []*Item{NewItem(0), NewItem(1), NewItem(2)}
	e := NewOrderedExecutor()
	e.MaxParallel = 2
	var committed []Key
	tie := uint64(0)
	var mk func(tm float64, depth int) *testOrderedTask
	mk = func(tm float64, depth int) *testOrderedTask {
		tie++
		t := &testOrderedTask{key: Key{Time: tm, Tie: tie}, claims: []*Item{items[r.IntN(len(items))]}}
		if depth > 0 && r.IntN(3) == 0 {
			t.spawn = []OrderedTask{mk(tm+float64(1+r.IntN(4)), depth-1)}
		}
		t.effect = func() { committed = append(committed, t.key) }
		return t
	}
	total := 0
	var count func(t *testOrderedTask)
	count = func(t *testOrderedTask) {
		total++
		for _, s := range t.spawn {
			count(s.(*testOrderedTask))
		}
	}
	for i := 0; i < 500; i++ {
		t := mk(float64(r.IntN(40)), 3)
		count(t)
		e.Add(t)
	}
	for e.Pending() > 0 {
		e.Round(1 + r.IntN(16))
	}
	if len(committed) != total {
		t.Fatalf("committed %d of %d tasks", len(committed), total)
	}
	if !slices.IsSortedFunc(committed, func(a, b Key) int {
		if a.Less(b) {
			return -1
		}
		if b.Less(a) {
			return 1
		}
		return 0
	}) {
		t.Fatal("commits left key order")
	}

	var h taskHeap
	ref := &refHeap{}
	for i := 0; i < 4000; i++ {
		if len(h) == 0 || r.IntN(3) > 0 {
			k := Key{Time: float64(r.IntN(50)), Tie: uint64(r.IntN(4))} // equal keys on purpose
			t := &testOrderedTask{key: k}
			h.push(keyed{k, t})
			heap.Push(ref, keyed{k, t})
			continue
		}
		if got, want := h.pop(), heap.Pop(ref).(keyed); got != want {
			t.Fatalf("pop %d: %+v, container/heap pops %+v", i, got.key, want.key)
		}
	}
}

// refHeap is container/heap over the same entries: the pop order the
// executor's heap must reproduce.
type refHeap []keyed

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].key.Less(h[j].key) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(keyed)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func TestRunAdaptiveOnOrderedExecutor(t *testing.T) {
	e := NewOrderedExecutor()
	it := NewItem(0)
	// A chain of contended tasks: at m processors only 1 commits per
	// round, so the controller should shrink m toward m_min.
	for i := 0; i < 60; i++ {
		e.Add(&testOrderedTask{key: key(float64(i)), claims: []*Item{it}})
	}
	ctrl := control.NewHybrid(control.DefaultHybridConfig(0.25))
	res := RunAdaptive(e, ctrl, 10000)
	if e.Pending() != 0 {
		t.Fatal("did not drain")
	}
	if res.Rounds == 0 {
		t.Fatal("no rounds")
	}
	if e.TotalCommitted() != 60 {
		t.Fatalf("committed %d", e.TotalCommitted())
	}
	// Final m should be pinned at the minimum for a serial chain.
	if ctrl.M() > 8 {
		t.Errorf("controller did not shrink on serial workload: m=%d", ctrl.M())
	}
}
