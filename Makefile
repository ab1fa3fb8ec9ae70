# Tier-1 verification for the repo (see ROADMAP.md): `make check` is
# the command CI runs. It ends with bench-check, so a bench/ that stops
# building or a workload that stops passing fails it too. `make bench`
# reproduces the executor micro-benchmarks recorded in CHANGES.md and
# the §2 selection and ordered-round numbers in EXPERIMENTS.md.

GO ?= go

# bench-sim knobs: lower BENCHTIME/BENCHCOUNT for a quick CI smoke run.
BENCHTIME ?= 1s
BENCHCOUNT ?= 5
BENCH_SIM_OUT ?= BENCH_sim.json

.PHONY: check vet build test race equiv chaos crash cluster partition overload bench bench-sim bench-e2e bench-check size

check: vet build test race equiv bench-check

# vet also fails on any file gofmt would rewrite, and vets the
# benchmark module (its own go.mod), so deleting a name bench/ uses
# fails here and not first in bench-check.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet .
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-heavy packages get a dedicated race pass: the
# speculative executor (the process's helper pool, work-set, pooled contexts), the
# workload registry, the specd job service (queue, workers, shutdown),
# the journal (group commit, the deferred-sync timer behind lazy appends,
# rotation/compaction/reopen), the cluster router, the fault-injection
# layer, and the CSR Monte Carlo estimation engine plus its consumers
# (graph, sched, profile, control), and the six speculative app
# adapters whose tasks run on the round pool (internal/apps/...).
# Nothing is skipped: no gate here
# compares wall-clock rates — TestColoredEquivalence compares launch and
# commit counts, and TestAsyncControllerEquivalence's steady-state m
# ratio stays inside its tolerance under the detector (the runs are in
# EXPERIMENTS.md, "barrier-free without the mutex convoy").
race:
	$(GO) test -race ./internal/speculation/ ./internal/workload/ ./internal/service/ \
		./internal/journal/ ./internal/cluster/ ./internal/faultinject/ \
		./internal/graph/ ./internal/sched/ ./internal/profile/ ./internal/control/ \
		./internal/apps/...

# equiv is the controller-equivalence acceptance check for the
# barrier-free executor — the hybrid controller fed sliding-window
# pseudo-rounds must settle to the same steady-state m as the same
# controller fed real rounds on the synthetic cc workload, with windows
# closing at the size asked for — plus the colored-mode acceptance run:
# on the stable-conflict workload, which declares its footprints, the
# colored drive must commit everything colored, with a zero conflict
# ratio and no aborts — one launch per colored commit, where the async
# drive of the same job launches well over one; and the conflict graph
# built from declarations must equal a brute-force graph of pairwise
# footprint overlaps, with item-disjoint color classes. The
# golden trajectories ride along: apprun's stdout and the round drive's
# per-round (M, R, Committed) series, each at -parallel 1 and 2 against
# one file (a round commits the greedy MIS of its pick order at any
# participant count), ccprofile's drained profiles of mesh, boruvka,
# cluster and des (one participant), and controlsim's
# -fig3/-converge/-ablate tables at -workers 1, where all are pure
# functions of the seed, pinned byte for byte.
equiv:
	$(GO) test -count=1 -run 'TestAsyncControllerEquivalence|TestRunAsyncWindow|TestColoredEquivalence|TestDeclared|TestGolden' \
		./internal/speculation/ ./internal/workload/ .

# chaos runs the fault-injection and cancellation end-to-end suites
# under the race detector: deterministic panic/error/delay injection
# through the executors, 429 storms against the client backoff, and
# cancel/deadline/shutdown races. Bounded well under a minute.
chaos:
	$(GO) test -race -count=1 -timeout 120s \
		-run 'Chaos|Cancel|Deadline|Fault|Inject|Poison|Failure|Async' \
		./internal/faultinject/ ./internal/service/ ./internal/workload/ ./internal/speculation/

# The process e2e targets below build the specd/specload binaries they
# start with -race as well (buildCmd follows the test binary), and a
# daemon that reports a data race fails its test.
#
# crash runs the kill-and-recover e2e under the race detector: SIGKILL
# specd mid-workload, tear the final journal record, restart on the
# same -state-dir, and require every job to finish with its trajectory
# (pre-crash rounds preserved for checkpointed jobs).
crash:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'SpecdCrash|SpecdRestart' .

# cluster runs the distributed e2e under the race detector: a router
# fronting three nodes, one SIGKILLed mid-soak — every job must reach a
# terminal state on the survivors, with handed-off jobs re-running at
# attempt >= 2 and keeping their pre-crash trajectory prefix — plus the
# load generator driven through the cluster front door.
cluster:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'SpecdCluster|SpecloadCluster' .

# partition runs the gray-failure e2e under the race detector: a router
# fronting three nodes while the chaos layer injects an asymmetric
# partition (suspect member keeps serving, no handoff), a 10x-slow node
# (reads bounded by the hedge delay), and ENOSPC on one WAL (read-only
# degraded mode, placements routed around, automatic recovery) — every
# job must still reach a terminal state on attempt 1.
partition:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'SpecdPartition' .

# overload runs the multi-tenant admission e2e under the race
# detector: three tenants with skewed weights flood one node — the
# well-behaved tenant's first submit must never see a global-queue 429,
# weighted-fair completion ratios must hold (weight 3 sustains >= 2.5x
# weight 1), the scavenger tenant must still trickle, healthz must
# answer 200 throughout, and a priority-9 arrival must preempt a
# running low-priority job at its next barrier, which later resumes on
# the same attempt.
overload:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'SpecdOverload' .

bench:
	$(GO) test ./internal/speculation/ -run NONE -bench BenchmarkExecutorRound -benchtime 2s
	$(GO) test . -run NONE -bench 'BenchmarkWorkset|BenchmarkOrderedRound'

# bench-sim reproduces the simulation- and executor-layer benchmarks
# (CSR vs mutable-graph greedy-MIS kernels, the mutable graph's
# build-and-drain, the CSR Monte Carlo engine at 1/2/4/8 workers,
# one round of no-op, spinning and conflict-heavy tasks at one
# participant and at two (what waking a helper costs a round),
# round-barrier vs barrier-free execution on the straggler workload,
# round vs async vs colored execution on declared stable-conflict
# topologies, the declare phase against the round-mode drain it
# replaces, an ordered round's fixed cost at small m over a shallow and
# a des-deep work-set, the journal's encoding of one 32-point
# checkpoint, operators at apps_mix's sizes: one clustering
# nearest-neighbor query among 1500 clusters, a whole sequential 6000
# mesh refinement, and one speculative drain each of mesh 6000, boruvka
# 6000 and sp 1000 with their allocations) and records per-benchmark
# medians in $(BENCH_SIM_OUT).
bench-sim:
	$(GO) test ./internal/graph/ ./internal/sched/ ./internal/speculation/ ./internal/service/ \
		./internal/apps/cluster/ ./internal/apps/mesh/ ./internal/workload/ -run NONE \
		-bench 'BenchmarkCSRMIS|BenchmarkMapMIS|BenchmarkGreedyMISMap|BenchmarkGreedyMISScratch|BenchmarkGraphBuildDrain|BenchmarkConflictRatioMCParallel|BenchmarkExecutorRound|BenchmarkExecutorAsync|BenchmarkExecutorColored|BenchmarkExecutorOrdered|BenchmarkDeclaredGraph|BenchmarkCheckpointRecord|BenchmarkClusterNearest|BenchmarkMeshRefine|BenchmarkSpeculativeDrain' \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) \
		| $(GO) run ./cmd/benchfmt > $(BENCH_SIM_OUT)
	@cat $(BENCH_SIM_OUT)

# bench-e2e runs the end-to-end benchmark BENCHMARK.json names — real
# specd subprocesses under -fsync always, every workload, one seed — and
# prints each metric with its regression bound. See bench/README.md;
# `go run -C bench . -repeat 10` gives medians and quartiles, `-trace 1`
# the per-layer attribution.
bench-e2e:
	$(GO) run -C bench . -seed 1

# bench-check vets and tests the benchmark module itself (its own
# go.mod, which `go test ./...` does not see): unit tests plus a smoke
# run of every workload. `make check` runs it last.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# size prints the non-test Go line count outside bench/ — the one number
# net-negative PRs quote before and after.
size:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l
