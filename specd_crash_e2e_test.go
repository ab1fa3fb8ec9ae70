package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// specdArgs returns the flag set for a durable daemon rooted at dir.
// checkpoint-rounds 2 makes round-mode checkpoints land almost
// immediately, checkpoint-commits 64 does the same for the async job's
// commit-count checkpoints, and the large history ring keeps the
// pre-crash trajectory prefix from being evicted during the (long)
// mesh reruns.
func durableArgs(dir string) []string {
	return []string{
		"-workers", "3", "-parallel", "1", "-queue", "32",
		"-state-dir", dir, "-fsync", "always",
		"-checkpoint-rounds", "2", "-checkpoint-commits", "64",
		"-history", "40000",
	}
}

// TestSpecdCrashRecovery is the headline durability proof: SIGKILL the
// daemon mid-workload with running and queued jobs, tear the final
// journal record the way a crash mid-append would, restart on the same
// state directory, and require every submitted job to finish with a
// non-empty trajectory — checkpointed jobs keeping their pre-crash
// rounds.
func TestSpecdCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}
	bin := buildCmd(t, "specd")
	stateDir := t.TempDir()
	p, base := startSpecd(t, bin, durableArgs(stateDir)...)
	c := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// One slow barrier-free cc job and two slow mesh jobs occupy all
	// three workers; six cc jobs queue behind them. At kill time: 3
	// running (with checkpoints — commit-count for the async job,
	// round-count for the meshes), 6 queued.
	//
	// The delay fault paces the async job so it is still mid-drain at
	// kill time but reruns well inside the test budget: at -parallel 1 the
	// async drive runs one task at a time (~1ms each, ~16s for the job).
	// It runs alone until it has committed past two commit-count
	// checkpoints (at checkpoint-commits=64, 160 commits guarantees at
	// least two durable records), and only then do the meshes start. Run
	// side by side, the meshes could finish first: their rounds keep the
	// CPUs busy, and a task waking from its delay waits for one.
	asyncJob, err := c.Submit(ctx, service.JobSpec{
		Workload: "cc", Controller: "fixed", FixedM: 8, Size: 16000,
		Mode:  service.ModeAsync,
		Fault: &service.FaultSpec{DelayRate: 1, Delay: service.Duration(time.Millisecond)},
	})
	if err != nil {
		t.Fatalf("submit async cc: %v", err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		st, err := c.Job(ctx, asyncJob.ID)
		if err == nil && st.State == service.StateRunning && st.Committed >= 160 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async job %s never checkpointed (last: %+v, err %v)", asyncJob.ID, st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, service.JobSpec{
			Workload: "mesh", Controller: "fixed", FixedM: 2, Size: 30000,
		})
		if err != nil {
			t.Fatalf("submit mesh %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	meshIDs := append([]string(nil), ids...)
	ids = append(ids, asyncJob.ID)
	for i := 0; i < 6; i++ {
		st, err := c.Submit(ctx, service.JobSpec{
			Workload: "cc", Controller: "hybrid", Size: 300, Seed: uint64(i + 1),
		})
		if err != nil {
			t.Fatalf("submit cc %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}

	// Wait until both mesh jobs are running with at least 4 rounds, so
	// at checkpoint-rounds=2 each has durable checkpoints to keep.
	for _, id := range meshIDs {
		for deadline := time.Now().Add(30 * time.Second); ; {
			st, err := c.Job(ctx, id)
			if err == nil && st.State == service.StateRunning && st.Rounds >= 4 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("mesh job %s never checkpointed (last: %+v, err %v)", id, st, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("specd did not die after SIGKILL")
	}

	// Simulate the crash landing mid-append: a partial frame at the tail
	// of the newest segment. Recovery must truncate it with a warning,
	// not refuse startup.
	if err := appendTornRecord(stateDir); err != nil {
		t.Fatalf("appending torn record: %v", err)
	}

	p2, base2 := startSpecd(t, bin, durableArgs(stateDir)...)
	c2 := client.New(base2)
	p2.waitLine(t, "truncating torn final record", 20*time.Second)
	p2.waitLine(t, "recovered state from", 20*time.Second)

	// Every one of the 9 jobs must reach done with a trajectory.
	for _, id := range ids {
		st, err := c2.Wait(ctx, id, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("waiting for %s after restart: %v", id, err)
		}
		if st.State != service.StateDone {
			t.Errorf("job %s: state %s after recovery (reason %q, error %q)", id, st.State, st.Reason, st.Error)
		}
		if len(st.Trajectory) == 0 {
			t.Errorf("job %s finished with an empty trajectory", id)
		}
	}

	// The interrupted mesh jobs were re-run: attempt 2, with the
	// checkpointed pre-crash rounds still at the head of the trajectory.
	for _, id := range meshIDs {
		st, err := c2.Job(ctx, id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if st.Attempt != 2 {
			t.Errorf("mesh job %s: attempt %d, want 2", id, st.Attempt)
		}
		var prefix, rerun int
		for _, pt := range st.Trajectory {
			if pt.Attempt == 0 {
				prefix++
			} else if pt.Attempt == 2 {
				rerun++
			}
		}
		if prefix < 4 {
			t.Errorf("mesh job %s: only %d pre-crash rounds preserved, want >= 4", id, prefix)
		}
		if rerun == 0 {
			t.Errorf("mesh job %s: no rerun rounds recorded", id)
		}
	}

	// The interrupted async job was re-run the same way, its pre-crash
	// pseudo-round prefix preserved by the commit-count checkpoints.
	{
		st, err := c2.Job(ctx, asyncJob.ID)
		if err != nil {
			t.Fatalf("async job %s: %v", asyncJob.ID, err)
		}
		if st.Attempt != 2 {
			t.Errorf("async job %s: attempt %d, want 2", asyncJob.ID, st.Attempt)
		}
		if st.Committed != 16000 {
			t.Errorf("async job %s: committed %d after rerun, want 16000", asyncJob.ID, st.Committed)
		}
		var prefix, rerun int
		for _, pt := range st.Trajectory {
			if pt.Attempt == 0 {
				prefix++
			} else if pt.Attempt == 2 {
				rerun++
			}
		}
		if prefix < 8 {
			t.Errorf("async job %s: only %d pre-crash samples preserved, want >= 8", asyncJob.ID, prefix)
		}
		if rerun == 0 {
			t.Errorf("async job %s: no rerun samples recorded", asyncJob.ID)
		}
	}

	// Journal metrics and healthz recovery status.
	metrics, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		"specd_journal_records_total",
		"specd_journal_fsyncs_total",
		"specd_recovered_jobs_total 3",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	var health struct {
		Journal       bool  `json:"journal"`
		RecoveredJobs int64 `json:"recovered_jobs"`
	}
	resp, err := http.Get(base2 + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz decode: %v\n%s", err, body)
	}
	if !health.Journal || health.RecoveredJobs != 3 {
		t.Errorf("healthz = %s, want journal=true recovered_jobs=3", body)
	}
}

// appendTornRecord appends a partial frame (a header promising 64
// payload bytes, followed by only 3) to the newest wal segment.
func appendTornRecord(dir string) error {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("no wal segments in %s", dir)
	}
	sort.Strings(names)
	f, err := os.OpenFile(names[len(names)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write([]byte{64, 0, 0, 0, 0xaa, 0xbb, 0xcc})
	return err
}

// TestSpecdCrashDuringPreemption: SIGKILL the daemon right after a
// preemption checkpoint lands but before the paused job gets another
// turn — the window where the pause record is durable but the
// in-memory re-enqueue is lost. Restart must restore the paused job
// from the journal, finish it with its pre-preemption trajectory
// prefix intact, and finish the high-priority job that triggered the
// pause.
func TestSpecdCrashDuringPreemption(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}
	bin := buildCmd(t, "specd")
	stateDir := t.TempDir()
	args := []string{
		"-workers", "1", "-parallel", "1", "-queue", "32",
		"-state-dir", stateDir, "-fsync", "always",
		"-checkpoint-rounds", "2", "-history", "40000",
	}
	p, base := startSpecd(t, bin, args...)
	c := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// A slow low-priority mesh job holds the only worker, checkpointing
	// every 2 rounds.
	victim, err := c.Submit(ctx, service.JobSpec{
		Workload: "mesh", Controller: "fixed", FixedM: 2, Size: 30000,
		Priority: 2,
	})
	if err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		st, err := c.Job(ctx, victim.ID)
		if err == nil && st.State == service.StateRunning && st.Rounds >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never checkpointed (last %+v, err %v)", st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The priority-9 arrival forces a pause at the victim's next round
	// barrier; the pause record hits the journal before the re-enqueue.
	urgent, err := c.Submit(ctx, service.JobSpec{
		Workload: "cc", Controller: "hybrid", Size: 300,
		Priority: service.MaxPriority,
	})
	if err != nil {
		t.Fatalf("submit urgent: %v", err)
	}
	p.waitLine(t, "(priority 9) preempting", 30*time.Second)
	p.waitLine(t, "paused for a higher-priority job", 30*time.Second)

	// Kill in the checkpoint-to-requeue window (the re-enqueue lives
	// only in memory; the journal's paused record is the truth).
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("specd did not die after SIGKILL")
	}

	p2, base2 := startSpecd(t, bin, args...)
	c2 := client.New(base2)
	p2.waitLine(t, "recovered state from", 20*time.Second)

	// Both jobs finish after restart.
	vFinal, err := c2.Wait(ctx, victim.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait victim: %v", err)
	}
	if vFinal.State != service.StateDone {
		t.Fatalf("victim state %s after recovery (reason %q, error %q)", vFinal.State, vFinal.Reason, vFinal.Error)
	}
	uFinal, err := c2.Wait(ctx, urgent.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait urgent: %v", err)
	}
	if uFinal.State != service.StateDone {
		t.Fatalf("urgent state %s after recovery", uFinal.State)
	}

	// The pause survived the crash: attempt counter and preemption
	// count restored from the journal, pre-preemption rounds preserved.
	if vFinal.Preemptions != 1 {
		t.Errorf("victim Preemptions=%d after recovery, want 1", vFinal.Preemptions)
	}
	if vFinal.Attempt < 2 {
		t.Errorf("victim Attempt=%d, want >= 2 (the pause bumped it)", vFinal.Attempt)
	}
	var prefix, rerun int
	for _, pt := range vFinal.Trajectory {
		if pt.Attempt == 0 {
			prefix++
		} else if pt.Attempt == vFinal.Attempt {
			rerun++
		}
	}
	if prefix < 4 {
		t.Errorf("victim kept %d pre-preemption rounds, want >= 4 (checkpoint-rounds=2 with 4+ rounds run)", prefix)
	}
	if rerun == 0 {
		t.Error("victim recorded no re-run rounds")
	}
}

// TestSpecdRestartCleanState: restarting on a state dir after a clean
// drain restores every finished job without re-running anything.
func TestSpecdRestartCleanState(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}
	bin := buildCmd(t, "specd")
	stateDir := t.TempDir()
	p, base := startSpecd(t, bin, durableArgs(stateDir)...)
	c := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	st, err := c.Submit(ctx, service.JobSpec{Workload: "cc", Controller: "hybrid", Size: 300})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil || final.State != service.StateDone {
		t.Fatalf("job: %v (state %s)", err, final.State)
	}

	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("specd did not drain")
	}

	_, base2 := startSpecd(t, bin, durableArgs(stateDir)...)
	c2 := client.New(base2)
	got, err := c2.Job(ctx, st.ID)
	if err != nil {
		t.Fatalf("job after restart: %v", err)
	}
	if got.State != service.StateDone || got.Rounds != final.Rounds || len(got.Trajectory) != len(final.Trajectory) {
		t.Errorf("restored rounds=%d traj=%d state=%s, want rounds=%d traj=%d done",
			got.Rounds, len(got.Trajectory), got.State, final.Rounds, len(final.Trajectory))
	}
	if got.Attempt > 1 {
		t.Errorf("clean restart re-ran job (attempt %d)", got.Attempt)
	}
}
