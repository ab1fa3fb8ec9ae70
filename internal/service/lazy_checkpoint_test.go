package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// slowSyncFS is the real filesystem with every segment fsync stretched
// to a fixed delay — a disk slow enough that "who waits for the fsync"
// decides a job's run time.
type slowSyncFS struct {
	vfs.OS
	delay time.Duration
}

func (s slowSyncFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := s.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{File: f, delay: s.delay}, nil
}

type slowSyncFile struct {
	vfs.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// manyRoundsSpec is a job of exactly 2000 one-task rounds (cc with a
// fixed allocation of one processor commits one node per round), with a
// telemetry-bearing twin below for the counter checks.
func manyRoundsSpec() JobSpec {
	return JobSpec{Workload: "cc", Controller: "fixed", FixedM: 1, Size: 2000, Seed: 5, Parallel: 1}
}

// waitUntil polls cond until it holds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitIdle waits until no worker holds a job. A poller sees a terminal
// state before the finished record is journaled; the worker lets go of
// the job only after it is.
func waitIdle(t *testing.T, s *Service) {
	t.Helper()
	waitUntil(t, "the worker to release its job", func() bool { return s.Running() == 0 })
}

// The round loop must not wait for checkpoint fsyncs: on a disk whose
// fsync takes 20 ms, a 2000-round job writes 62 checkpoints, and waiting
// for each would alone cost 1.24 s on top of what the same job takes
// with no journal at all. The replayed job must still be the in-memory
// one, checkpoint by checkpoint.
func TestCheckpointFsyncsAreOffTheRoundLoop(t *testing.T) {
	const syncDelay = 20 * time.Millisecond
	mem := New(Config{Workers: 1, HistoryCap: 4096})
	memSt, err := mem.Submit(manyRoundsSpec())
	if err != nil {
		t.Fatalf("in-memory submit: %v", err)
	}
	memFinal := waitTerminal(t, mem, memSt.ID, 60*time.Second)
	mem.Shutdown(context.Background())
	if memFinal.State != StateDone {
		t.Fatalf("in-memory job finished %s (%s)", memFinal.State, memFinal.Error)
	}
	memRan := memFinal.FinishedAt.Sub(*memFinal.StartedAt)

	dir := t.TempDir()
	cfg := Config{
		Workers: 1, QueueCap: 8, HistoryCap: 4096, StateDir: dir,
		Fsync: journal.SyncAlways, FS: slowSyncFS{delay: syncDelay},
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	st, err := s.Submit(manyRoundsSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitTerminal(t, s, st.ID, 60*time.Second)
	if final.State != StateDone || final.Rounds != 2000 {
		t.Fatalf("job finished %s after %d rounds (%s), want done after 2000", final.State, final.Rounds, final.Error)
	}
	waitIdle(t, s)
	checkpoints := final.Rounds / 32
	stalled := time.Duration(checkpoints) * syncDelay
	if ran := final.FinishedAt.Sub(*final.StartedAt); ran >= memRan+stalled/2 {
		t.Errorf("job ran %v (%v with no journal); %d checkpoint fsyncs of %v would stall it %v — the round loop is waiting for them",
			ran, memRan, checkpoints, syncDelay, stalled)
	}
	jst := s.JournalStats()
	if jst.Lazy != int64(checkpoints) {
		t.Errorf("journal counted %d lazy records, want the %d checkpoints", jst.Lazy, checkpoints)
	}
	if jst.Records != jst.Lazy+3 { // submitted, started, finished
		t.Errorf("journal counted %d records for %d checkpoints, want 3 more", jst.Records, jst.Lazy)
	}
	if jst.Fsyncs >= jst.Records {
		t.Errorf("%d fsyncs for %d records: lazy checkpoints did not batch", jst.Fsyncs, jst.Records)
	}

	// SIGKILL-equivalent: read the directory behind the running
	// service's back (nothing closed, nothing compacted) and replay it.
	rep, err := journal.Replay(dir, journal.Options{})
	if err != nil {
		t.Fatalf("replay of the live state dir: %v", err)
	}
	probe := &Service{cfg: cfg.withDefaults()}
	rst, err := probe.restoreState(rep)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	got := rst.jobs[st.ID].snapshot(-1)
	if got.State != StateDone || got.Rounds != final.Rounds || got.Committed != final.Committed ||
		got.MeanConflictRatio != final.MeanConflictRatio {
		t.Errorf("replayed job: %s, %d rounds, %d committed, mean r %v; in memory: %s, %d, %d, %v",
			got.State, got.Rounds, got.Committed, got.MeanConflictRatio,
			final.State, final.Rounds, final.Committed, final.MeanConflictRatio)
	}
	if !reflect.DeepEqual(got.Trajectory, final.Trajectory) {
		t.Errorf("replayed trajectory (%d points) differs from the in-memory one (%d points)",
			len(got.Trajectory), len(final.Trajectory))
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// Controller counters are published on the checkpoint cadence and on
// the way out instead of every round; what a finished job reports, and
// what its journal replays to, must be what the controller itself says
// after driving the same deterministic job directly.
func TestControllerCountersMatchDirectDrive(t *testing.T) {
	spec := JobSpec{Workload: "cc", Controller: "hybrid", Rho: 0.25, Size: 3000, Seed: 11, Parallel: 1}

	run, err := workload.New(spec.Workload, workload.Params{Size: spec.Size, Seed: spec.Seed, Parallel: spec.Parallel})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	ctrl, err := workload.NewController(spec.Controller, workload.ControllerParams{Rho: spec.Rho})
	if err != nil {
		t.Fatalf("controller: %v", err)
	}
	rounds := workload.Drain(context.Background(), run.Stepper, ctrl, 0).Rounds
	run.Stepper.Close()
	want := ctrl.(interface{ Counters() map[string]int }).Counters()
	if rounds <= 32 || rounds%32 == 0 {
		t.Fatalf("direct drive took %d rounds; the test needs a last round off the checkpoint cadence", rounds)
	}

	dir := t.TempDir()
	s, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitTerminal(t, s, st.ID, 60*time.Second)
	if final.State != StateDone || final.Rounds != rounds {
		t.Fatalf("job finished %s after %d rounds (%s), want done after %d", final.State, final.Rounds, final.Error, rounds)
	}
	if !reflect.DeepEqual(final.ControllerCounters, want) {
		t.Errorf("finished job counters = %v, want the controller's own %v", final.ControllerCounters, want)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s2, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Shutdown(context.Background())
	if got, _ := s2.Job(st.ID); !reflect.DeepEqual(got.ControllerCounters, want) {
		t.Errorf("restored job counters = %v, want %v", got.ControllerCounters, want)
	}
}

// A checkpoint's deferred fsync failing mid-job cannot fail the
// checkpoint append — it already returned. The journal latches the
// error, the job's next record hits it, and that is where the service
// turns degraded; the in-flight job still finishes, and the post-heal
// compaction re-persists what the dead disk dropped.
func TestBackgroundFsyncFaultEntersDegradedMode(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(nil)
	s, err := Open(Config{
		Workers: 1, QueueCap: 8, StateDir: dir, Fsync: journal.SyncAlways,
		FsyncInterval: time.Millisecond, CheckpointEvery: 4,
		FS: ffs, DegradedRetryInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	slow, err := s.Submit(JobSpec{
		Workload: "mesh", Controller: "fixed", FixedM: 2, Size: 20000, Seed: 3, Parallel: 1,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitUntil(t, "the job to checkpoint", func() bool { return s.JournalStats().Lazy >= 2 })

	// The disk dies under a running job. Nothing synchronous is appended
	// from here until the job ends, so only a checkpoint — its deferred
	// fsync failing, then the next checkpoint seeing the latched error —
	// can notice.
	ffs.Fail("sync", "wal-", faultinject.ErrNoSpace)
	waitUntil(t, "degraded mode", func() bool { deg, _ := s.DegradedInfo(); return deg })
	if st, _ := s.JobTail(slow.ID, 0); st.Terminal() {
		t.Fatalf("job already %s; the fault was meant to land mid-job", st.State)
	}
	if final := waitTerminal(t, s, slow.ID, 60*time.Second); final.State != StateDone {
		t.Fatalf("in-flight job finished %s (%s), want done", final.State, final.Error)
	}

	ffs.Clear()
	waitUntil(t, "recovery", func() bool { deg, _ := s.DegradedInfo(); return !deg })
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s2, err := Open(Config{Workers: 1, QueueCap: 8, StateDir: dir, Fsync: journal.SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Shutdown(context.Background())
	if st, ok := s2.Job(slow.ID); !ok || st.State != StateDone {
		t.Fatalf("job restored as %+v (found %v), want done — the post-heal snapshot must re-persist it", st.State, ok)
	}
}

// Parameters no instance can be built from — an impossible size/degree
// combination, a size under the generator's minimum — used to panic in
// the workload constructor on the worker goroutine, after the job had
// been acknowledged and journaled. Admission refuses them now.
func TestImpossibleParamsRejectedAtAdmission(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, body := range []string{
		`{"workload":"cc","controller":"hybrid","size":1,"degree":16}`,
		`{"workload":"cc","controller":"hybrid","size":16}`, // default degree 16
		`{"workload":"stable","controller":"hybrid","size":8}`,
		`{"workload":"cc","controller":"hybrid","size":100,"degree":99.5}`,
		`{"workload":"sp","controller":"hybrid","size":2}`,      // a 3-SAT formula needs 3 variables
		`{"workload":"maxflow","controller":"hybrid","size":3}`, // size/2 nodes: no room for source and sink
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s answered %d, want 400", body, resp.StatusCode)
		}
	}
	for _, spec := range []JobSpec{
		{Workload: "cc", Controller: "hybrid", Size: 17}, // complete graph at the default degree 16
		{Workload: "sp", Controller: "hybrid", Size: 3},
		{Workload: "maxflow", Controller: "hybrid", Size: 4},
	} {
		if st, err := s.Submit(spec); err != nil {
			t.Errorf("%s size %d is the smallest valid instance, not an error: %v", spec.Workload, spec.Size, err)
		} else if final := waitTerminal(t, s, st.ID, 30*time.Second); final.State != StateDone {
			t.Errorf("%s size %d finished %s (%s), want done", spec.Workload, spec.Size, final.State, final.Error)
		}
	}
}

// A panic on the job's own goroutine fails that job, durably, and
// nothing else. Admission refuses every spec known to make a constructor
// panic, so the first job's "started" log line does the panicking.
func TestWorkloadPanicFailsTheJob(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.Logf = func(format string, args ...any) {
		if strings.Contains(format, "started:") && args[0] == "j1" {
			panic("boom")
		}
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	bad, err := s.Submit(ccSpec(2))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitTerminal(t, s, bad.ID, 30*time.Second)
	if final.State != StateFailed || !strings.Contains(final.Error, "panic") {
		t.Fatalf("panicking job finished %s (%q), want failed with the panic as its error", final.State, final.Error)
	}
	good, err := s.Submit(ccSpec(1))
	if err != nil {
		t.Fatalf("submit after the panic: %v", err)
	}
	if st := waitTerminal(t, s, good.ID, 30*time.Second); st.State != StateDone {
		t.Fatalf("job after the panic finished %s (%s), want done", st.State, st.Error)
	}
	waitIdle(t, s) // the panicking attempt must have released its worker slot too
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Shutdown(context.Background())
	if st, ok := s2.Job(bad.ID); !ok || st.State != StateFailed || st.Attempt != 1 {
		t.Fatalf("panicked job restored as %s attempt %d (found %v), want failed on attempt 1, not re-run",
			st.State, st.Attempt, ok)
	}
	if s2.Recovered() != 0 {
		t.Errorf("Recovered() = %d, want 0", s2.Recovered())
	}
}

// A state dir written before admission learned to refuse the poison
// pill: the job replays as recovered, must fail instead of killing the
// process, and must stay failed across the next restart.
func TestPoisonPillStateDirReopens(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatalf("journal open: %v", err)
	}
	spec := JobSpec{
		Workload: "cc", Controller: "hybrid", Rho: 0.25, Size: 1, Degree: 16, Seed: 1,
		Parallel: 2, MaxRounds: 1 << 30, Mode: ModeRound, Tenant: DefaultTenant, Priority: 5,
	}
	now := time.Now()
	for _, rec := range []walRecord{
		{Type: recSubmitted, ID: "j1", At: now, Spec: &spec},
		{Type: recStarted, ID: "j1", At: now, Attempt: 1},
	} {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := jnl.Append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	s, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	final := waitTerminal(t, s, "j1", 30*time.Second)
	if final.State != StateFailed || final.Attempt != 2 {
		t.Fatalf("poison pill finished %s on attempt %d (%q), want failed on attempt 2",
			final.State, final.Attempt, final.Error)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s2, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Shutdown(context.Background())
	if st, _ := s2.Job("j1"); st.State != StateFailed || st.Attempt != 2 || s2.Recovered() != 0 {
		t.Fatalf("second restart: job %s attempt %d, %d recovered; want failed, 2, 0",
			st.State, st.Attempt, s2.Recovered())
	}
}

// The lazy-record counter is exported next to records and fsyncs, so
// records/fsyncs stays readable as a batching factor.
func TestMetricsExportLazyRecords(t *testing.T) {
	s, err := Open(Config{Workers: 1, StateDir: t.TempDir(), CheckpointEvery: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Shutdown(context.Background())
	st, err := s.Submit(ccSpec(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitTerminal(t, s, st.ID, 30*time.Second)
	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	want := "specd_journal_lazy_records_total " + strconv.Itoa(final.Rounds/2) + "\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("metrics lack %q (job ran %d rounds, checkpointing every 2)", want, final.Rounds)
	}
}
