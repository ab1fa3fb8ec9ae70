package speculation

import (
	"fmt"
	"math"
)

// This file holds the *ordered* schedule of the executor — the paper's §5
// future work: "it would be extremely valuable to obtain similar results
// for the more general and difficult case of ordered algorithms (e.g.,
// discrete event simulation)". Tasks carry priorities (e.g., event
// timestamps) and must commit in priority order.
//
// An ordered round is a round of the one engine (runBatch), so the same
// context, failure budget and processor-allocation controllers apply. The
// schedule changes two things:
//
//   - take: a round takes the m earliest pending tasks by key (a heap),
//     where the unordered schedule uses its pick;
//   - stop: the walk, in key order, commits a task iff no earlier winner
//     of the round claimed one of its items (conflict) and no winner of
//     the round spawned work that precedes it (premature execution — the
//     Time-Warp causality hazard), and it ends the commit prefix at the
//     first task that does not commit: a later task may depend on what
//     that one does when it runs again. Losers are requeued; their
//     phase-1 work is the wasted speculation the conflict ratio measures.
//
// Ordered tasks are cautious by construction: Run reads shared state,
// acquires what it touches, and defers every mutation to OnCommit. A
// winner's commit actions run inside the walk, so the events they spawn
// are seen by the premature check of the tasks after it.

// Key is a total-order priority: primary the float Time, ties broken by
// the deterministic Tie tag. Lower keys commit first.
type Key struct {
	Time float64
	Tie  uint64
}

// Less orders keys lexicographically.
func (k Key) Less(o Key) bool {
	if k.Time != o.Time {
		return k.Time < o.Time
	}
	return k.Tie < o.Tie
}

// MaxKey is larger than every real key.
var MaxKey = Key{Time: math.Inf(1), Tie: math.MaxUint64}

// OrderedTask is a task with a commit priority: what an executor under
// the ordered schedule runs, and what its tasks spawn.
type OrderedTask interface {
	Task
	// Key returns the task's commit priority. It must be constant for
	// the lifetime of the task.
	Key() Key
}

// errPremature is the walk's verdict on a task past the end of the
// ordered commit prefix: an abort, which RoundStats.Premature also counts.
var errPremature = fmt.Errorf("%w: ran ahead of earlier work", ErrConflict)

// NewOrderedExecutor returns an empty executor under the ordered
// schedule: every task it is given, and every task those spawn, must be
// an OrderedTask, and a spawn's key must be after its parent's. It runs
// rounds only; Drive refuses the async and colored modes on it.
func NewOrderedExecutor() *Executor { return &Executor{ordered: true} }

// keyOf returns the key of a task entering the ordered schedule's
// work-set, and panics on a task that has none.
func keyOf(t Task) Key {
	o, ok := t.(OrderedTask)
	if !ok {
		panic(fmt.Sprintf("speculation: %T is not an OrderedTask: the ordered schedule admits only keyed tasks", t))
	}
	return o.Key()
}

// keyed is a work-set entry under the ordered schedule: the entry and its
// key, read once at admission. Key is constant for a task's lifetime, so
// nothing after that calls it.
type keyed struct {
	key Key
	queued
}

// push adds x to the work-set heap. The heap is a binary min-heap by key
// that sifts exactly as container/heap does, so even equal keys pop in
// the same order. Callers hold e.mu.
func (e *Executor) push(x keyed) {
	s := append(e.heap, x)
	j := len(s) - 1
	for ; j > 0 && x.key.Less(s[(j-1)/2].key); j = (j - 1) / 2 {
		s[j] = s[(j-1)/2]
	}
	s[j] = x
	e.heap = s
}

// pop removes and returns the earliest entry of the work-set heap.
// Callers hold e.mu.
func (e *Executor) pop() keyed {
	s := e.heap
	n := len(s) - 1
	top, last := s[0], s[n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && s[c+1].key.Less(s[c].key) {
			c++
		}
		if !s[c].key.Less(last.key) {
			break
		}
		s[i], i = s[c], c
	}
	s[i], s[n] = last, keyed{} // n == 0: both are slot 0, which leaves the heap
	e.heap = s[:n]
	return top
}

// takeEarliest is the ordered take policy: it moves the m earliest
// entries of the heap into the scratch batch, in key order, and their
// keys into the scratch keys.
func (e *Executor) takeEarliest(m int) {
	s := &e.scratch
	e.mu.Lock()
	for ; m > 0 && len(e.heap) > 0; m-- {
		x := e.pop()
		s.batch = append(s.batch, x.queued)
		s.keys = append(s.keys, x.key)
	}
	e.mu.Unlock()
}

// pushAll puts entries on the work-set heap.
func (e *Executor) pushAll(xs ...keyed) {
	if len(xs) == 0 {
		return
	}
	e.mu.Lock()
	for _, x := range xs {
		e.push(x)
	}
	e.mu.Unlock()
}

// commitInPlace commits an ordered winner keyed k inside the walk: its
// commit actions run, then its spawns — each keyed after k — are admitted
// onto the scratch back list. It returns the earliest key spawned in the
// walk so far, first included.
func (e *Executor) commitInPlace(c *Ctx, k, first Key, st *RoundStats) Key {
	for _, fn := range c.onCommit {
		fn()
	}
	for _, t := range c.spawned {
		sk := keyOf(t)
		if !k.Less(sk) {
			panic(fmt.Sprintf("speculation: spawn key %+v not after parent %+v", sk, k))
		}
		if sk.Less(first) {
			first = sk
		}
		e.scratch.back = append(e.scratch.back, keyed{sk, e.admit(t)})
	}
	st.Spawned += len(c.spawned)
	return first
}
