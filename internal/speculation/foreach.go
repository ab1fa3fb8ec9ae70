package speculation

import "repro/internal/control"

// ForEach is the Galois-style amorphous data-parallel loop: it applies
// op speculatively to every item, with conflicts detected through the
// items' ctx.Acquire calls, retry on abort, and processor allocation
// chosen round-by-round by ctrl. New work may be added during execution
// through Push on the loop handle.
//
// op must follow the speculative-task contract (acquire before touching
// shared state; defer every mutation to OnCommit).
// ForEach returns when the work-set — including pushed work — drains,
// or maxRounds elapse.
func ForEach[T any](items []T, op func(item T, ctx *Ctx) error, ctrl control.Controller, maxRounds int) *AdaptiveResult {
	loop := NewLoop(op)
	for _, it := range items {
		loop.Push(it)
	}
	return loop.Run(ctrl, maxRounds)
}

// Loop is an amorphous data-parallel loop handle: a work-set of items of
// type T executed speculatively by a shared operator. Use it instead of
// ForEach when the operator needs to generate new work (Push is safe
// from OnCommit actions and between rounds).
type Loop[T any] struct {
	op   func(item T, ctx *Ctx) error
	exec *Executor
}

// NewLoop builds an empty loop around the operator.
func NewLoop[T any](op func(item T, ctx *Ctx) error) *Loop[T] {
	return &Loop[T]{op: op, exec: NewExecutor(nil)}
}

// Push adds one work item.
func (l *Loop[T]) Push(item T) {
	l.exec.Add(TaskFunc(func(ctx *Ctx) error { return l.op(item, ctx) }))
}

// Run drains the loop under ctrl and returns the adaptive trajectory.
func (l *Loop[T]) Run(ctrl control.Controller, maxRounds int) *AdaptiveResult {
	return RunAdaptive(l.exec, ctrl, maxRounds)
}
