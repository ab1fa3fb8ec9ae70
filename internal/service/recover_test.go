package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// durableCfg is a small single-worker durable config rooted at dir.
func durableCfg(dir string) Config {
	return Config{Workers: 1, QueueCap: 8, StateDir: dir, Fsync: journal.SyncAlways}
}

func TestRestartRestoresCompletedJobs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	want := make(map[string]JobStatus)
	var order []string
	for seed := uint64(1); seed <= 3; seed++ {
		st, err := s.Submit(ccSpec(seed))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		order = append(order, st.ID)
	}
	for _, id := range order {
		final := waitTerminal(t, s, id, 30*time.Second)
		if final.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", id, final.State, final.Error)
		}
		want[id], _ = s.Job(id)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Shutdown(context.Background())

	jobs := s2.Jobs()
	if len(jobs) != len(order) {
		t.Fatalf("restored %d jobs, want %d", len(jobs), len(order))
	}
	for i, st := range jobs {
		if st.ID != order[i] {
			t.Errorf("jobs[%d] = %s, want %s (submit order)", i, st.ID, order[i])
		}
	}
	for _, id := range order {
		got, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		w := want[id]
		if got.State != w.State || got.Rounds != w.Rounds || got.Committed != w.Committed ||
			got.Result != w.Result || got.MeanConflictRatio != w.MeanConflictRatio {
			t.Errorf("job %s restored as %+v, want %+v", id, got, w)
		}
		if len(got.Trajectory) != len(w.Trajectory) {
			t.Errorf("job %s trajectory has %d points after restart, want %d",
				id, len(got.Trajectory), len(w.Trajectory))
		}
	}

	// nextID continues past the restored jobs: no id reuse.
	st, err := s2.Submit(ccSpec(9))
	if err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
	if _, dup := want[st.ID]; dup {
		t.Fatalf("restarted service reused job id %s", st.ID)
	}
	if got := waitTerminal(t, s2, st.ID, 30*time.Second); got.State != StateDone {
		t.Fatalf("post-restart job: state %s, error %q", got.State, got.Error)
	}
}

// TestCrashRecoveryRerunsInterruptedJob crafts the WAL a crashed
// process would leave behind — submitted, started, one checkpoint, no
// terminal record — and asserts the job is re-run from spec with its
// checkpointed trajectory prefix preserved.
func TestCrashRecoveryRerunsInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.Options{Fsync: journal.SyncAlways})
	if err != nil {
		t.Fatalf("journal open: %v", err)
	}
	spec := ccSpec(7)
	spec.Rho = 0.25
	spec.MaxRounds = 1 << 30
	append1 := func(rec walRecord) {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := jnl.Append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	now := time.Now()
	append1(walRecord{Type: recSubmitted, ID: "j1", At: now, Spec: &spec})
	append1(walRecord{Type: recStarted, ID: "j1", At: now, Attempt: 1})
	prefix := []RoundPoint{
		{Round: 0, M: 2, Launched: 10, Committed: 8, Aborted: 2, R: 0.2},
		{Round: 1, M: 3, Launched: 12, Committed: 9, Aborted: 3, R: 0.25},
		{Round: 2, M: 4, Launched: 14, Committed: 11, Aborted: 3, R: 0.21},
	}
	append1(walRecord{
		Type: recCheckpoint, ID: "j1", At: now, Attempt: 1,
		Rounds: 3, CurrentM: 4, Pending: 170,
		Launched: 36, Committed: 28, Aborted: 8, RSum: 0.66,
		Points: prefix,
	})
	// A started record with no submitted record: the spec never became
	// durable, so recovery must drop it rather than re-run garbage.
	append1(walRecord{Type: recStarted, ID: "j9", At: now, Attempt: 1})
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	s, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Shutdown(context.Background())

	if got := s.Recovered(); got != 1 {
		t.Errorf("Recovered() = %d, want 1", got)
	}
	if _, ok := s.Job("j9"); ok {
		t.Errorf("spec-less stub j9 survived recovery")
	}

	final := waitTerminal(t, s, "j1", 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("recovered job: state %s, error %q", final.State, final.Error)
	}
	if final.Attempt != 2 {
		t.Errorf("attempt = %d, want 2 (bumped by recovery)", final.Attempt)
	}
	// The pre-crash prefix stays at the head of the trajectory, tagged
	// attempt 0 (== 1); the rerun's points are tagged attempt 2.
	if len(final.Trajectory) <= len(prefix) {
		t.Fatalf("trajectory has %d points, want > %d (prefix + rerun)", len(final.Trajectory), len(prefix))
	}
	for i, p := range final.Trajectory[:len(prefix)] {
		if p.Attempt != 0 || p.Round != prefix[i].Round || p.M != prefix[i].M {
			t.Errorf("prefix point %d = %+v, want %+v", i, p, prefix[i])
		}
	}
	for i, p := range final.Trajectory[len(prefix):] {
		if p.Attempt != 2 {
			t.Errorf("rerun point %d = %+v, want attempt 2", i, p)
		}
		if p.Round != i {
			t.Errorf("rerun point %d has round %d, want %d (counters reset per attempt)", i, p.Round, i)
		}
	}
	// Attempt-local counters describe the rerun only, not crash + rerun.
	if final.Committed != 200 {
		t.Errorf("committed = %d, want 200 (one per node, not double-counted)", final.Committed)
	}

	// The terminal record is durable: a further restart restores the
	// finished job without re-running it.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s2, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Shutdown(context.Background())
	if got := s2.Recovered(); got != 0 {
		t.Errorf("second restart Recovered() = %d, want 0", got)
	}
	st, ok := s2.Job("j1")
	if !ok || st.State != StateDone || st.Attempt != 2 {
		t.Errorf("after second restart: ok=%v state=%s attempt=%d", ok, st.State, st.Attempt)
	}
	if len(st.Trajectory) != len(final.Trajectory) {
		t.Errorf("trajectory shrank across restart: %d != %d", len(st.Trajectory), len(final.Trajectory))
	}
}

// TestRecoveryRequeuesQueuedJobs: a job journaled as submitted but
// never started re-enqueues and runs after restart.
func TestRecoveryRequeuesQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.Options{Fsync: journal.SyncAlways})
	if err != nil {
		t.Fatalf("journal open: %v", err)
	}
	spec := ccSpec(3)
	spec.Rho = 0.25
	spec.MaxRounds = 1 << 30
	b, _ := json.Marshal(walRecord{Type: recSubmitted, ID: "j1", At: time.Now(), Spec: &spec})
	if err := jnl.Append(b); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	s, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Shutdown(context.Background())
	if got := s.Recovered(); got != 0 {
		t.Errorf("Recovered() = %d, want 0 (queued, not interrupted)", got)
	}
	final := waitTerminal(t, s, "j1", 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("requeued job: state %s, error %q", final.State, final.Error)
	}
	if final.Attempt != 1 {
		t.Errorf("attempt = %d, want 1 (never started before the crash)", final.Attempt)
	}
}

// TestCompactionEquivalence: with CompactBytes tiny enough that the
// snapshot's own size sets the trigger, so the journal compacts
// repeatedly mid-run, restart still restores the same job table —
// snapshot+journal replay is equivalent to journal-only replay.
func TestCompactionEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.CompactBytes = 1
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		st, err := s.Submit(ccSpec(seed))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, st.ID)
	}
	want := make(map[string]JobStatus)
	for _, id := range ids {
		final := waitTerminal(t, s, id, 30*time.Second)
		if final.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", id, final.State, final.Error)
		}
		want[id] = final
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Shutdown(context.Background())
	for _, id := range ids {
		got, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across compacted restart", id)
		}
		w := want[id]
		if got.State != w.State || got.Rounds != w.Rounds || got.Committed != w.Committed ||
			len(got.Trajectory) != len(w.Trajectory) {
			t.Errorf("job %s restored as rounds=%d committed=%d traj=%d, want rounds=%d committed=%d traj=%d",
				id, got.Rounds, got.Committed, len(got.Trajectory),
				w.Rounds, w.Committed, len(w.Trajectory))
		}
	}
}

func TestJobsDeterministicOrder(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 32})
	defer s.Shutdown(context.Background())
	var order []string
	for seed := uint64(1); seed <= 10; seed++ {
		st, err := s.Submit(ccSpec(seed))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		order = append(order, st.ID)
	}
	for range [5]struct{}{} {
		jobs := s.Jobs()
		if len(jobs) != len(order) {
			t.Fatalf("Jobs() returned %d, want %d", len(jobs), len(order))
		}
		for i, st := range jobs {
			if st.ID != order[i] {
				t.Fatalf("Jobs()[%d] = %s, want %s (submit order)", i, st.ID, order[i])
			}
		}
	}
}

func TestJobTail(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 4})
	defer s.Shutdown(context.Background())
	st, err := s.Submit(ccSpec(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitTerminal(t, s, st.ID, 30*time.Second)
	if len(final.Trajectory) < 3 {
		t.Fatalf("need >= 3 rounds for a tail test, got %d", len(final.Trajectory))
	}
	for _, tc := range []struct{ tail, want int }{
		{-1, len(final.Trajectory)},
		{0, 0},
		{2, 2},
		{len(final.Trajectory) + 10, len(final.Trajectory)},
	} {
		got, ok := s.JobTail(st.ID, tc.tail)
		if !ok {
			t.Fatalf("JobTail(%d): job vanished", tc.tail)
		}
		if len(got.Trajectory) != tc.want {
			t.Errorf("JobTail(%d): %d points, want %d", tc.tail, len(got.Trajectory), tc.want)
		}
	}
	got, _ := s.JobTail(st.ID, 2)
	wantLast := final.Trajectory[len(final.Trajectory)-2:]
	for i, p := range got.Trajectory {
		if p != wantLast[i] {
			t.Errorf("tail point %d = %+v, want %+v (newest points)", i, p, wantLast[i])
		}
	}
}

// TestCancelRecoveredJob: a recovered job can be canceled before its
// rerun starts, and the cancellation is durable.
func TestCancelRecoveredJob(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.Options{Fsync: journal.SyncAlways})
	if err != nil {
		t.Fatalf("journal open: %v", err)
	}
	spec := ccSpec(5)
	spec.Rho = 0.25
	spec.MaxRounds = 1 << 30
	for _, rec := range []walRecord{
		{Type: recSubmitted, ID: "j1", At: time.Now(), Spec: &spec},
		{Type: recStarted, ID: "j1", At: time.Now(), Attempt: 1},
	} {
		b, _ := json.Marshal(rec)
		if err := jnl.Append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	// Workers: 0 is coerced to the default, so use a spec the single
	// worker cannot reach before we cancel: stall it behind another job.
	cfg := durableCfg(dir)
	cfg.Workers = 1
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Cancel immediately; the worker may or may not have claimed it yet,
	// so accept either the queued-cancel or the round-barrier path.
	st, err := s.Cancel("j1")
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	_ = st
	final := waitTerminal(t, s, "j1", 30*time.Second)
	if final.State != StateCanceled && final.State != StateDone {
		t.Fatalf("state %s after cancel, want canceled (or done if the race lost)", final.State)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s2, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Shutdown(context.Background())
	got, ok := s2.Job("j1")
	if !ok {
		t.Fatalf("job lost across restart")
	}
	if got.State != final.State {
		t.Errorf("restored state %s, want %s (terminal states are durable)", got.State, final.State)
	}
}

// TestCorruptJournalFailsOpen: mid-log corruption must refuse startup
// with a clear error, not silently drop jobs. (A corrupt FINAL record
// is a torn write and is truncated instead; that path is covered in
// internal/journal.)
func TestCorruptJournalFailsOpen(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.Options{Fsync: journal.SyncAlways})
	if err != nil {
		t.Fatalf("journal open: %v", err)
	}
	spec := ccSpec(1)
	for i := 0; i < 3; i++ {
		b, _ := json.Marshal(walRecord{Type: recSubmitted, ID: fmt.Sprintf("j%d", i+1), At: time.Now(), Spec: &spec})
		if err := jnl.Append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	// Flip a payload byte of the FIRST record: two intact records follow
	// it, so this is corruption, not a tear.
	if err := flipSegmentByte(dir, 12); err != nil {
		t.Fatalf("corrupting segment: %v", err)
	}
	if _, err := Open(durableCfg(dir)); err == nil {
		t.Fatalf("Open succeeded on a corrupt journal, want an error")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("error %q does not mention corruption", err)
	}
}

// flipSegmentByte XORs the byte at off in the first non-empty wal
// segment in dir.
func flipSegmentByte(dir string, off int64) error {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			return err
		}
		if fi.Size() <= off {
			continue
		}
		f, err := os.OpenFile(name, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, off); err != nil {
			return err
		}
		b[0] ^= 0xff
		_, err = f.WriteAt(b, off)
		return err
	}
	return fmt.Errorf("no wal segment longer than %d bytes in %s", off, dir)
}

// TestReplayReadsOlderPausedRecord: older versions journaled a `paused`
// record at a preemption, with the attempt already bumped for a rerun
// from spec. Replay still reads one: the job reruns at that attempt,
// keeping its prefix and its preemption count.
func TestReplayReadsOlderPausedRecord(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.Options{Fsync: journal.SyncAlways})
	if err != nil {
		t.Fatalf("journal open: %v", err)
	}
	spec := ccSpec(7)
	spec.Rho = 0.25
	spec.MaxRounds = 1 << 30
	now := time.Now()
	prefix := []RoundPoint{
		{Round: 0, M: 2, Launched: 10, Committed: 8, Aborted: 2, R: 0.2},
		{Round: 1, M: 3, Launched: 12, Committed: 9, Aborted: 3, R: 0.25},
	}
	for _, rec := range []walRecord{
		{Type: recSubmitted, ID: "j1", At: now, Spec: &spec},
		{Type: recStarted, ID: "j1", At: now, Attempt: 1},
		{Type: recPaused, ID: "j1", At: now, Attempt: 2, Preemptions: 1,
			Rounds: 2, CurrentM: 3, Launched: 22, Committed: 17, Aborted: 5, RSum: 0.45, Points: prefix},
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
	defer s.Shutdown(context.Background())
	final := waitTerminal(t, s, "j1", 30*time.Second)
	if final.State != StateDone || final.Attempt != 2 || final.Preemptions != 1 {
		t.Fatalf("replayed paused job: %s attempt %d, %d preemptions (%q); want done on attempt 2 after 1",
			final.State, final.Attempt, final.Preemptions, final.Error)
	}
	if len(final.Trajectory) <= len(prefix) || final.Trajectory[1] != prefix[1] || final.Trajectory[2].Attempt != 2 ||
		final.Trajectory[2].Round != 0 {
		t.Fatalf("trajectory %+v, want the 2-point prefix, then the rerun from round 0 on attempt 2", final.Trajectory)
	}
	if final.Committed != 200 {
		t.Errorf("committed = %d, want 200 (the rerun's, not the prefix's too)", final.Committed)
	}
}

// A journal written before a controller name was removed still replays:
// a queued job and a job running at the crash that name a removed
// controller fail with an error naming it, and a job beside them that
// names a registered controller still finishes.
func TestReplayRemovedController(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.Options{Fsync: journal.SyncAlways})
	if err != nil {
		t.Fatalf("journal open: %v", err)
	}
	spec := func(seed uint64, controller string) *JobSpec {
		sp := ccSpec(seed)
		sp.Controller, sp.Rho, sp.MaxRounds = controller, 0.25, 1<<30
		return &sp
	}
	now := time.Now()
	for _, rec := range []walRecord{
		{Type: recSubmitted, ID: "j1", At: now, Spec: spec(1, "pi")},
		{Type: recSubmitted, ID: "j2", At: now, Spec: spec(2, "aimd")},
		{Type: recStarted, ID: "j2", At: now, Attempt: 1},
		{Type: recSubmitted, ID: "j3", At: now, Spec: spec(3, "hybrid")},
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
	defer s.Shutdown(context.Background())
	for id, name := range map[string]string{"j1": "pi", "j2": "aimd"} {
		final := waitTerminal(t, s, id, 30*time.Second)
		if want := fmt.Sprintf("controller %q", name); final.State != StateFailed || !strings.Contains(final.Error, want) {
			t.Errorf("job %s naming %s: %s (%q), want failed naming %s", id, name, final.State, final.Error, want)
		}
	}
	if final := waitTerminal(t, s, "j3", 30*time.Second); final.State != StateDone {
		t.Errorf("hybrid job: %s (%q), want done", final.State, final.Error)
	}
}
