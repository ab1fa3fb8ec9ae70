// Fault-path coverage for the journal through the injectable
// filesystem seam: fsync failure mid-group-commit, a failed deferred
// fsync behind lazy appends, ENOSPC during segment rotation, ENOSPC
// during snapshot compaction, and a stress run mixing every entry point
// over a flapping disk. Each case
// asserts the core durability contract — no acknowledged record is
// ever torn or lost — and that the journal re-opens cleanly once the
// fault clears.
//
// External test package: faultinject imports vfs alongside journal, so
// these tests cannot live in package journal without a cycle.
package journal_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
)

// replayAll re-opens dir and returns the replayed record payloads.
func replayAll(t *testing.T, dir string, opts journal.Options) [][]byte {
	t.Helper()
	rep, err := journal.Replay(dir, opts)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return rep.Records
}

// assertContains fails unless every record in want appears in got
// (acknowledged records must survive; unacknowledged extras may).
func assertContains(t *testing.T, got [][]byte, want map[string]bool) {
	t.Helper()
	have := make(map[string]bool, len(got))
	for _, r := range got {
		have[string(r)] = true
	}
	for rec := range want {
		if !have[rec] {
			t.Errorf("acknowledged record %q lost after fault", rec)
		}
	}
}

func TestJournalFsyncErrorMidGroupCommit(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(nil)
	opts := journal.Options{Fsync: journal.SyncAlways, FS: ffs}
	j, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	acked := make(map[string]bool)
	var ackedMu sync.Mutex
	for i := 0; i < 10; i++ {
		rec := fmt.Sprintf("pre-%03d", i)
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatalf("healthy append %d: %v", i, err)
		}
		acked[rec] = true
	}

	// The disk goes bad under the open segment: a group of concurrent
	// appenders all share the failing fsync, and every one of them must
	// see the error — none may treat a failed group commit as an ack.
	ffs.Fail("sync", "wal-", faultinject.ErrNoSpace)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = j.Append([]byte(fmt.Sprintf("doomed-%d", i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("append %d acknowledged during fsync fault", i)
		}
	}
	if j.Err() == nil {
		t.Fatal("journal did not latch the fsync error")
	}
	// The error is sticky: later appends fail fast without touching disk.
	if err := j.Append([]byte("while-broken")); err == nil {
		t.Fatal("append succeeded on a broken journal")
	}

	// The disk heals: Reopen clears the sticky error and appending
	// resumes in a fresh segment.
	ffs.Clear()
	if err := j.Reopen(); err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	if j.Err() != nil {
		t.Fatalf("sticky error survived reopen: %v", j.Err())
	}
	for i := 0; i < 10; i++ {
		rec := fmt.Sprintf("post-%03d", i)
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatalf("append after reopen: %v", err)
		}
		ackedMu.Lock()
		acked[rec] = true
		ackedMu.Unlock()
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Clean re-open: replay must not report corruption, and every
	// acknowledged record must be present and whole.
	assertContains(t, replayAll(t, dir, opts), acked)
}

func TestJournalENOSPCDuringRotation(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(nil)
	// Tiny segments so appends rotate constantly.
	opts := journal.Options{Fsync: journal.SyncAlways, SegmentBytes: 128, FS: ffs}
	j, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	acked := make(map[string]bool)
	append32 := func(tag string, n int) (lastErr error) {
		for i := 0; i < n; i++ {
			rec := fmt.Sprintf("%s-%03d-xxxxxxxxxxxxxxxxxxxxxxxx", tag, i)
			if err := j.Append([]byte(rec)); err != nil {
				return err
			}
			acked[rec] = true
		}
		return nil
	}
	if err := append32("pre", 8); err != nil {
		t.Fatalf("healthy appends: %v", err)
	}

	// Disk full: the next rotation cannot create its segment file.
	ffs.Fail("open", "wal-", faultinject.ErrNoSpace)
	var sawErr bool
	for i := 0; i < 16; i++ {
		if err := j.Append([]byte(fmt.Sprintf("doomed-%03d-xxxxxxxxxxxxxxxxxxxx", i))); err != nil {
			if !errors.Is(err, faultinject.ErrNoSpace) {
				t.Fatalf("rotation fault surfaced as %v, want ENOSPC", err)
			}
			sawErr = true
			break
		}
		acked[fmt.Sprintf("doomed-%03d-xxxxxxxxxxxxxxxxxxxx", i)] = true
	}
	if !sawErr {
		t.Fatal("ENOSPC on rotation never surfaced")
	}
	if j.Err() == nil {
		t.Fatal("journal did not latch the rotation error")
	}

	ffs.Clear()
	if err := j.Reopen(); err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	if err := append32("post", 8); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertContains(t, replayAll(t, dir, opts), acked)
}

func TestJournalENOSPCDuringSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(nil)
	opts := journal.Options{Fsync: journal.SyncAlways, FS: ffs}
	j, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	acked := make(map[string]bool)
	for i := 0; i < 10; i++ {
		rec := fmt.Sprintf("rec-%03d", i)
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		acked[rec] = true
	}

	// Disk full during the snapshot tmp-write: compaction must fail
	// loudly, leave no (possibly torn) snapshot behind, and leave the
	// append path healthy — the WAL segments still hold every record.
	ffs.Fail("write", "snap.tmp", faultinject.ErrNoSpace)
	if err := j.Compact(func() ([]byte, error) { return []byte(`{"snap":1}`), nil }); err == nil {
		t.Fatal("compaction acknowledged a failed snapshot write")
	}
	if j.Err() != nil {
		t.Fatalf("failed compaction poisoned the append path: %v", j.Err())
	}
	if err := j.Append([]byte("after-failed-compact")); err != nil {
		t.Fatalf("append after failed compaction: %v", err)
	}
	acked["after-failed-compact"] = true

	// A torn snapshot must never be replayed: everything is still in
	// the segments.
	assertContains(t, replayAll(t, dir, opts), acked)

	// Heal and compact for real: the snapshot now covers the history.
	ffs.Clear()
	if err := j.Compact(func() ([]byte, error) { return []byte(`{"snap":2}`), nil }); err != nil {
		t.Fatalf("compaction after heal: %v", err)
	}
	if err := j.Append([]byte("after-good-compact")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Replay(dir, opts)
	if err != nil {
		t.Fatalf("replay after compaction: %v", err)
	}
	if string(rep.Snapshot) != `{"snap":2}` {
		t.Errorf("snapshot payload: %q", rep.Snapshot)
	}
	found := false
	for _, r := range rep.Records {
		if string(r) == "after-good-compact" {
			found = true
		}
	}
	if !found {
		t.Error("post-compaction record lost")
	}
}

// A lazy append cannot report its own fsync failing — it has returned
// by then. The failure must not be lost: it latches as the sticky
// error, and the next append of either kind returns it.
func TestLazyAppendFsyncFaultIsSticky(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(nil)
	opts := journal.Options{Fsync: journal.SyncAlways, Interval: time.Millisecond, FS: ffs}
	j, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("acked")); err != nil {
		t.Fatalf("healthy append: %v", err)
	}

	ffs.Fail("sync", "wal-", faultinject.ErrNoSpace)
	if err := j.AppendLazy([]byte("lazy")); err != nil {
		t.Fatalf("lazy append returned %v; the write itself was healthy", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("failed deferred fsync never latched the sticky error")
		}
		time.Sleep(time.Millisecond)
	}
	if err := j.AppendLazy([]byte("after")); !errors.Is(err, faultinject.ErrNoSpace) {
		t.Fatalf("lazy append on a faulted journal = %v, want the sticky ENOSPC", err)
	}
	if err := j.Append([]byte("after")); !errors.Is(err, faultinject.ErrNoSpace) {
		t.Fatalf("append on a faulted journal = %v, want the sticky ENOSPC", err)
	}

	ffs.Clear()
	if err := j.Reopen(); err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	if err := j.AppendLazy([]byte("healed")); err != nil {
		t.Fatalf("lazy append after reopen: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertContains(t, replayAll(t, dir, opts), map[string]bool{"acked": true, "healed": true})
}

// Every entry point at once, under the race detector: synchronous and
// lazy appenders, constant rotation (tiny segments), a compactor, and a
// disk that keeps failing fsyncs and being reopened. The application
// model is the service's: state is updated before the record is
// journaled, and a snapshot serializes the state. Whatever interleaving
// happens, the final replay must parse (no mid-log tear) and
// snapshot ∪ records must hold every record whose synchronous Append
// was acknowledged.
func TestJournalStressLazySyncRotateCompactReopen(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(nil)
	opts := journal.Options{Fsync: journal.SyncAlways, Interval: time.Millisecond, SegmentBytes: 256, FS: ffs}
	j, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	state := make(map[string]bool) // every record ever attempted
	acked := make(map[string]bool) // synchronous appends that returned nil
	snapshot := func() ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		keys := make([]string, 0, len(state))
		for k := range state {
			keys = append(keys, k)
		}
		return json.Marshal(keys)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	appender := func(tag string, lazy bool) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := fmt.Sprintf("%s-%05d-padpadpadpadpadpad", tag, i)
			mu.Lock()
			state[rec] = true
			mu.Unlock()
			if lazy {
				_ = j.AppendLazy([]byte(rec)) // durability is nobody's promise
				continue
			}
			if err := j.Append([]byte(rec)); err == nil {
				mu.Lock()
				acked[rec] = true
				mu.Unlock()
			}
		}
	}
	for w := 0; w < 3; w++ {
		wg.Add(2)
		go appender(fmt.Sprintf("sync%d", w), false)
		go appender(fmt.Sprintf("lazy%d", w), true)
	}
	wg.Add(2)
	go func() { // compactor
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
				_ = j.Compact(snapshot) // fails while the disk is down; fine
			}
		}
	}()
	go func() { // flapping disk
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			ffs.Fail("sync", "wal-", faultinject.ErrNoSpace)
			time.Sleep(2 * time.Millisecond)
			ffs.Clear()
			if err := j.Reopen(); err != nil {
				t.Errorf("reopen on a healed disk: %v", err)
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	ffs.Clear()
	if err := j.Reopen(); err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	rep, err := journal.Replay(dir, opts)
	if err != nil {
		t.Fatalf("replay after stress: %v", err)
	}
	have := make(map[string]bool)
	if len(rep.Snapshot) > 0 {
		var keys []string
		if err := json.Unmarshal(rep.Snapshot, &keys); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		for _, k := range keys {
			have[k] = true
		}
	}
	for _, r := range rep.Records {
		have[string(r)] = true
	}
	if len(acked) == 0 {
		t.Fatal("stress acknowledged nothing")
	}
	for rec := range acked {
		if !have[rec] {
			t.Errorf("acknowledged record %q lost", rec)
		}
	}
}
