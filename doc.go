// Package repro reproduces "Processor Allocation for Optimistic
// Parallelization of Irregular Programs" (Versaci & Pingali, SPAA'11
// brief announcement; full version ICCSA'12) as a production-quality Go
// library.
//
// The packages are (examples/quickstart shows them together):
//
//   - internal/graph       — dynamic CC graphs, generators, greedy MIS
//   - internal/analytic    — the §3 closed-form theory (Turán extension)
//   - internal/sched       — the §2 round-based scheduler model, its
//     static round (a speculation.Rounder), and its Monte Carlo
//     estimation engine
//   - internal/control     — the §4 controllers (Algorithm 1 hybrid),
//     smart start, model-based controller
//   - internal/speculation — goroutine-based optimistic runtime, the
//     ordered executor (§5), the ForEach/Loop API, and Drive, the one
//     loop that runs a controller against a Rounder
//   - internal/profile     — Lonestar-style parallelism profiles
//   - internal/apps/...    — Delaunay refinement, Boruvka, survey
//     propagation, agglomerative clustering, preflow-push max flow,
//     discrete-event simulation
//
// The benchmarks in bench_test.go regenerate every figure of the paper;
// see EXPERIMENTS.md for paper-vs-measured results and DESIGN.md for the
// per-experiment index and the validation-oracle table.
package repro
