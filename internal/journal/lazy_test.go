package journal

import (
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
)

// hookFS is the real filesystem with the journal's segment fsyncs
// counted, announced, and optionally held: the seam the lazy-append
// tests observe "who fsynced, when, and how often" through.
type hookFS struct {
	vfs.OS
	syncs   atomic.Int64  // Sync calls on wal segments, counted on entry
	unsync  atomic.Int64  // segment writes since the last completed Sync
	entered chan struct{} // one token per Sync entry
	gate    chan struct{} // non-nil: Sync blocks until the gate closes
}

func newHookFS(gated bool) *hookFS {
	// Room for every Sync a test can issue, so the hook never blocks the
	// journal on an unread token.
	fs := &hookFS{entered: make(chan struct{}, 1024)}
	if gated {
		fs.gate = make(chan struct{})
	}
	return fs
}

func (h *hookFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := h.OS.OpenFile(name, flag, perm)
	if err != nil || !strings.Contains(name, "wal-") {
		return f, err
	}
	return &hookFile{File: f, fs: h}, nil
}

type hookFile struct {
	vfs.File
	fs *hookFS
}

func (f *hookFile) Write(p []byte) (int, error) {
	f.fs.unsync.Add(1)
	return f.File.Write(p)
}

func (f *hookFile) Sync() error {
	covered := f.fs.unsync.Load()
	f.fs.syncs.Add(1)
	f.fs.entered <- struct{}{}
	if f.fs.gate != nil {
		<-f.fs.gate
	}
	err := f.File.Sync()
	if err == nil {
		f.fs.unsync.Add(-covered)
	}
	return err
}

// within fails the test unless fn returns before the deadline — the
// shape of "this call must not wait for an fsync" when the fsync is
// gated shut.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s blocked (waiting on a gated fsync?)", what)
	}
}

func awaitSync(t *testing.T, fs *hookFS, what string) {
	t.Helper()
	select {
	case <-fs.entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no fsync arrived", what)
	}
}

// awaitDeferred waits until the armed deferred sync (if any) has fired
// and its callback has returned. The caller must not be appending
// concurrently.
func awaitDeferred(t *testing.T, j *Journal) {
	t.Helper()
	done := make(chan struct{})
	go func() { j.deferred.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deferred sync never completed")
	}
}

// AppendLazy must never fsync on its caller's goroutine: with every
// fsync gated shut it still returns, both before the deferred sync has
// started and while it sits blocked in the filesystem.
func TestAppendLazyDoesNotWaitForFsync(t *testing.T) {
	fs := newHookFS(true)
	j := mustOpen(t, t.TempDir(), Options{Fsync: SyncAlways, Interval: time.Millisecond, FS: fs})
	within(t, "first lazy append", func() error { return j.AppendLazy([]byte("a")) })
	awaitSync(t, fs, "deferred sync") // the timer fired; its fsync is now stuck on the gate
	within(t, "lazy append during a blocked fsync", func() error { return j.AppendLazy([]byte("b")) })
	if n := fs.syncs.Load(); n != 1 {
		t.Fatalf("%d fsyncs entered, want only the deferred one", n)
	}
	close(fs.gate)
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st := j.CurrentStats(); st.Records != 2 || st.Lazy != 2 {
		t.Fatalf("stats = %+v, want 2 records, both lazy", st)
	}
}

// A returned AppendLazy is in the OS file (a process crash — here:
// reading the directory behind the journal's back, no Close — loses
// nothing) and is fsynced by the deferred sync without anyone asking.
func TestAppendLazyReachesOSThenDisk(t *testing.T) {
	for _, pol := range []Policy{SyncAlways, SyncInterval} {
		t.Run(string(pol), func(t *testing.T) {
			dir := t.TempDir()
			fs := newHookFS(false)
			j := mustOpen(t, dir, Options{Fsync: pol, Interval: 20 * time.Millisecond, FS: fs})
			defer j.Close()
			recs := records(3)
			for _, r := range recs {
				if err := j.AppendLazy(r); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			if n := fs.syncs.Load(); n != 0 {
				t.Fatalf("%d fsyncs before the interval elapsed", n)
			}
			assertRecords(t, mustReplay(t, dir, Options{}).Records, recs)
			awaitSync(t, fs, "deferred sync")
			awaitDeferred(t, j)
			if n := fs.unsync.Load(); n != 0 {
				t.Fatalf("%d writes still not covered by an fsync after the deferred sync", n)
			}
		})
	}
}

// However many lazy records land inside one Interval, they cost one
// deferred fsync.
func TestLazyAppendsCoalesceIntoOneFsync(t *testing.T) {
	fs := newHookFS(false)
	j := mustOpen(t, t.TempDir(), Options{Fsync: SyncAlways, Interval: 200 * time.Millisecond, FS: fs})
	start := time.Now()
	for _, r := range records(50) {
		if err := j.AppendLazy(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if time.Since(start) >= 200*time.Millisecond {
		t.Skip("machine too slow to fit the appends inside one interval")
	}
	awaitSync(t, fs, "deferred sync")
	awaitDeferred(t, j)
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// One deferred fsync for the fifty records, one from Close.
	if st := j.CurrentStats(); st.Fsyncs != 2 {
		t.Fatalf("fsyncs = %d, want 2 (one deferred + Close)", st.Fsyncs)
	}
}

// A synchronous Append behind lazy records makes them durable with its
// own fsync; the timer then fires into a no-op.
func TestSyncAppendCoversLazyRecords(t *testing.T) {
	fs := newHookFS(false)
	j := mustOpen(t, t.TempDir(), Options{Fsync: SyncAlways, Interval: 30 * time.Millisecond, FS: fs})
	defer j.Close()
	for _, r := range records(5) {
		if err := j.AppendLazy(r); err != nil {
			t.Fatalf("lazy append: %v", err)
		}
	}
	if err := j.Append([]byte("gate")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if n, dirty := fs.syncs.Load(), fs.unsync.Load(); n != 1 || dirty != 0 {
		t.Fatalf("after the synchronous append: %d fsyncs, %d uncovered writes; want 1 and 0", n, dirty)
	}
	awaitDeferred(t, j)
	if n := fs.syncs.Load(); n != 1 {
		t.Fatalf("the deferred sync issued %d extra fsyncs over records already durable", n-1)
	}
	if st := j.CurrentStats(); st.Records != 6 || st.Lazy != 5 || st.Fsyncs != 1 {
		t.Fatalf("stats = %+v, want 6 records, 5 lazy, 1 fsync", st)
	}
}

// Close with the timer still pending must not leave the lazy tail
// unsynced, must not fire the timer afterwards, and must not strand a
// goroutine; Close while the deferred sync is in flight waits for it.
func TestCloseSettlesDeferredSync(t *testing.T) {
	before := runtime.NumGoroutine()

	fs := newHookFS(false)
	j := mustOpen(t, t.TempDir(), Options{Fsync: SyncAlways, Interval: time.Hour, FS: fs})
	if err := j.AppendLazy([]byte("tail")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n, dirty := fs.syncs.Load(), fs.unsync.Load(); n != 1 || dirty != 0 {
		t.Fatalf("close with a pending timer: %d fsyncs, %d uncovered writes; want 1 and 0", n, dirty)
	}

	gated := newHookFS(true)
	j = mustOpen(t, t.TempDir(), Options{Fsync: SyncAlways, Interval: time.Millisecond, FS: gated})
	if err := j.AppendLazy([]byte("tail")); err != nil {
		t.Fatalf("append: %v", err)
	}
	awaitSync(t, gated, "deferred sync")
	closed := make(chan error, 1)
	go func() { closed <- j.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the deferred sync was still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gated.gate)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// SyncInterval without its ticker goroutine: Append still returns
// without an fsync, the fsync still follows within the interval with no
// Close to force it, and an idle journal issues none.
func TestSyncIntervalWithoutFlushLoop(t *testing.T) {
	dir := t.TempDir()
	fs := newHookFS(true)
	j := mustOpen(t, dir, Options{Fsync: SyncInterval, Interval: 5 * time.Millisecond, FS: fs})
	recs := records(20)
	for _, r := range recs {
		r := r
		within(t, "interval append", func() error { return j.Append(r) })
	}
	awaitSync(t, fs, "interval sync")
	close(fs.gate)
	awaitDeferred(t, j)
	if dirty := fs.unsync.Load(); dirty != 0 {
		t.Fatalf("%d writes uncovered after the interval sync", dirty)
	}
	n := fs.syncs.Load()
	time.Sleep(4 * 5 * time.Millisecond) // four idle intervals
	if got := fs.syncs.Load(); got != n {
		t.Fatalf("idle interval journal issued %d fsyncs", got-n)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertRecords(t, mustReplay(t, dir, Options{}).Records, recs)
}

// Under SyncNever a lazy append is a plain append: buffered, never
// fsynced, no timer.
func TestAppendLazySyncNever(t *testing.T) {
	dir := t.TempDir()
	fs := newHookFS(false)
	j := mustOpen(t, dir, Options{Fsync: SyncNever, Interval: time.Millisecond, FS: fs})
	if err := j.AppendLazy([]byte("x")); err != nil {
		t.Fatalf("append: %v", err)
	}
	j.mu.Lock()
	armed := j.syncTimer != nil
	j.mu.Unlock()
	if armed {
		t.Fatal("SyncNever armed a deferred sync")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := fs.syncs.Load(); n != 0 {
		t.Fatalf("SyncNever issued %d fsyncs", n)
	}
	assertRecords(t, mustReplay(t, dir, Options{}).Records, [][]byte{[]byte("x")})
}
