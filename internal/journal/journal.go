// Package journal is the durability layer under the specd service: an
// append-only write-ahead log of length-and-CRC-framed records with
// group-commit fsync batching and segment rotation, plus atomic-rename
// snapshot files that let compaction drop replayed history.
//
// The package is payload-agnostic — records are opaque byte slices
// (the service encodes its job-lifecycle records as JSON). On disk a
// state directory holds:
//
//	wal-%08d.log   append-only segments of framed records
//	snap-%08d.db   one framed snapshot record; snap-N covers every
//	               record in segments with sequence < N
//
// Replay loads the newest snapshot and then the segments at or above
// its sequence, in order. A torn final record (a crash mid-append) is
// truncated away with a warning; a corrupt record anywhere else —
// a CRC mismatch, or a tear that is not at the journal's tail — is
// refused with an error, because silently skipping it would replay a
// history with a hole in the middle.
//
// Durability policy is per-journal: SyncAlways fsyncs before Append
// returns (concurrent appenders share one fsync — group commit),
// SyncInterval hands every record to the OS before Append returns and
// fsyncs at most Interval later, SyncNever buffers in the process and
// leaves syncing to the OS. Always and interval survive a process crash
// (a returned append is in the page cache); they differ only in how
// much a machine crash can lose. Never can also lose its unflushed
// buffer (up to 64 KiB) to a process crash.
//
// AppendLazy is the entry point for records that gate nothing — the
// service's periodic checkpoints. Under SyncAlways it is an interval
// append: written to the OS before it returns, fsynced off the caller's
// goroutine within Interval by a one-shot timer that joins the same
// group commit as the synchronous appenders. The log is one sequential
// stream, so durability stays prefix-closed: once a record is durable,
// every record appended before it — lazy or not — is durable too.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// Policy selects when appended records are fsynced.
type Policy string

const (
	// SyncAlways fsyncs before Append returns; concurrent appenders
	// share a single fsync (group commit).
	SyncAlways Policy = "always"
	// SyncInterval writes each record to the OS before Append returns
	// and fsyncs it within Options.Interval.
	SyncInterval Policy = "interval"
	// SyncNever never fsyncs explicitly; the OS flushes on its own.
	SyncNever Policy = "never"
)

// ParsePolicy validates a -fsync flag value.
func ParsePolicy(s string) (Policy, error) {
	switch p := Policy(s); p {
	case SyncAlways, SyncInterval, SyncNever:
		return p, nil
	}
	return "", fmt.Errorf("journal: unknown fsync policy %q (want always, interval, or never)", s)
}

// Options tunes a journal. Zero values take the documented defaults.
type Options struct {
	Fsync          Policy        // default SyncAlways
	Interval       time.Duration // longest a deferred fsync waits (default 5ms)
	SegmentBytes   int64         // rotation threshold (default 4 MiB)
	MaxRecordBytes int           // sanity bound on one record (default 16 MiB)

	// FS is the filesystem seam (default: the real OS filesystem).
	// Fault-injection tests substitute one that fails fsyncs or runs
	// out of space; see internal/faultinject.
	FS vfs.FS

	// Logf receives recovery warnings (default: discard).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Fsync == "" {
		o.Fsync = SyncAlways
	}
	if o.Interval <= 0 {
		o.Interval = 5 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 16 << 20
	}
	if o.FS == nil {
		o.FS = vfs.OS{}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("journal: closed")

// Record framing: a 4-byte little-endian payload length, a 4-byte
// CRC-32C (Castagnoli) of the payload, then the payload.
const frameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func segName(seq int64) string  { return fmt.Sprintf("wal-%08d.log", seq) }
func snapName(seq int64) string { return fmt.Sprintf("snap-%08d.db", seq) }

// parseSeq extracts the sequence number from a wal-/snap- file name,
// returning ok=false for anything else (tmp files, strays).
func parseSeq(name, prefix, suffix string) (int64, bool) {
	if len(name) != len(prefix)+8+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq int64
	for _, c := range name[len(prefix) : len(prefix)+8] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int64(c-'0')
	}
	return seq, true
}

// Journal is an open write-ahead log. Append and AppendLazy are safe
// for concurrent use; Compact and Close serialize against appenders
// internally.
type Journal struct {
	dir  string
	opts Options
	fs   vfs.FS

	mu        sync.Mutex
	f         vfs.File
	bw        *bufio.Writer
	segSeq    int64 // sequence of the segment being appended to
	segBytes  int64 // bytes written to the current segment
	liveBytes int64 // bytes across all segments since the last compact
	appended  int64 // records appended since Open (monotone)
	synced    int64 // records covered by a completed fsync
	closed    bool
	err       error // sticky I/O error; all later appends fail with it

	// syncMu is the group-commit waiting room: the first appender in
	// fsyncs everything flushed so far, later ones observe synced and
	// return without their own fsync.
	syncMu sync.Mutex

	compactMu sync.Mutex

	// The deferred sync: a one-shot timer armed (under mu) by the first
	// append that does not wait for its own fsync, cleared when it fires.
	// deferred counts the armed-or-running callback so Close can wait it
	// out.
	syncTimer *time.Timer // non-nil while armed
	deferred  sync.WaitGroup

	records atomic.Int64
	lazy    atomic.Int64
	fsyncs  atomic.Int64
}

// Stats is a point-in-time snapshot of journal counters.
type Stats struct {
	Records   int64 // records appended since Open
	Lazy      int64 // of those, records whose append did not wait for its fsync
	Fsyncs    int64 // fsync calls issued
	LiveBytes int64 // segment bytes not yet covered by a snapshot
	Segment   int64 // current segment sequence
}

// Open opens dir for appending, creating it if needed. It always
// starts a fresh segment (one past the highest existing sequence), so
// it never appends to a file that may end in a torn record; run
// Replay first to read the existing state.
func Open(dir string, opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	entries, err := opts.FS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var next, live int64 = 1, 0
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			if seq >= next {
				next = seq + 1
			}
			if info, err := e.Info(); err == nil {
				live += info.Size()
			}
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".db"); ok && seq >= next {
			next = seq + 1
		}
	}
	f, err := opts.FS.OpenFile(filepath.Join(dir, segName(next)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		dir:       dir,
		opts:      opts,
		fs:        opts.FS,
		f:         f,
		bw:        bufio.NewWriterSize(f, 1<<16),
		segSeq:    next,
		liveBytes: live,
	}
	return j, nil
}

// Append writes one record. Under SyncAlways it returns only after the
// record is fsynced (sharing the fsync with concurrent appenders);
// under SyncInterval it is AppendLazy; under SyncNever it returns once
// the record is buffered.
func (j *Journal) Append(rec []byte) error {
	return j.append(rec, j.opts.Fsync == SyncAlways)
}

// AppendLazy writes one record whose durability nobody waits for. The
// record is handed to the OS before AppendLazy returns — a process
// crash loses nothing that was acknowledged — but the fsync happens off
// the caller's goroutine, at most Options.Interval later, and is shared
// with every record appended in between. A synchronous Append that
// lands first covers the lazy records and the deferred sync finds
// nothing to do. A failed deferred fsync latches the sticky error; the
// next append of either kind returns it. Under SyncNever AppendLazy is
// Append.
func (j *Journal) AppendLazy(rec []byte) error {
	return j.append(rec, false)
}

// append frames and writes one record; wait makes the caller wait for
// the record's fsync.
func (j *Journal) append(rec []byte, wait bool) error {
	if len(rec) == 0 {
		return errors.New("journal: empty record")
	}
	if len(rec) > j.opts.MaxRecordBytes {
		return fmt.Errorf("journal: record of %d bytes exceeds limit %d", len(rec), j.opts.MaxRecordBytes)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(rec, castagnoli))

	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return err
	}
	if j.segBytes >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			j.err = err
			j.mu.Unlock()
			return err
		}
	}
	_, werr := j.bw.Write(hdr[:])
	if werr == nil {
		_, werr = j.bw.Write(rec)
	}
	if werr != nil {
		j.err = werr
		j.mu.Unlock()
		return werr
	}
	n := int64(frameHeader + len(rec))
	j.segBytes += n
	j.liveBytes += n
	seq := j.appended
	j.appended++
	j.records.Add(1)
	if wait {
		j.mu.Unlock()
		return j.syncThrough(seq)
	}
	if j.opts.Fsync == SyncNever {
		j.mu.Unlock()
		return nil
	}
	j.lazy.Add(1)
	if err := j.bw.Flush(); err != nil {
		j.err = err
		j.mu.Unlock()
		return err
	}
	if j.syncTimer == nil {
		// One deferred sync per Interval, however many records join it:
		// an fsync kicked per record would run back to back and make every
		// synchronous appender wait out one it cannot share.
		j.deferred.Add(1)
		j.syncTimer = time.AfterFunc(j.opts.Interval, j.deferredSync)
	}
	j.mu.Unlock()
	return nil
}

// deferredSync is the timer callback behind lazy appends: fsync through
// the newest record, via the same group commit as synchronous
// appenders. Its error is not lost — syncThrough latches it as the
// sticky error the next append returns.
func (j *Journal) deferredSync() {
	defer j.deferred.Done()
	j.mu.Lock()
	j.syncTimer = nil
	seq := j.appended - 1
	j.mu.Unlock()
	_ = j.syncThrough(seq)
}

// syncThrough guarantees record seq (0-based append index) is fsynced.
// The first caller in fsyncs everything appended so far; callers that
// arrive while that fsync is in flight find their record covered and
// return without issuing another one — group commit.
func (j *Journal) syncThrough(seq int64) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()

	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return err
	}
	if j.synced > seq {
		j.mu.Unlock()
		return nil
	}
	if err := j.bw.Flush(); err != nil {
		j.err = err
		j.mu.Unlock()
		return err
	}
	f := j.f
	target := j.appended
	j.mu.Unlock()

	// Fsync outside mu so appenders keep writing into the buffer while
	// the disk works — that concurrency is what forms the commit group.
	// A concurrent rotation may have synced and closed this file
	// already; its records are durable, so ErrClosed here is success.
	if err := f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
		j.mu.Lock()
		j.err = err
		j.mu.Unlock()
		return err
	}
	j.fsyncs.Add(1)
	j.mu.Lock()
	if target > j.synced {
		j.synced = target
	}
	j.mu.Unlock()
	return nil
}

// Sync flushes and fsyncs everything appended so far.
func (j *Journal) Sync() error {
	j.mu.Lock()
	seq := j.appended - 1
	closed := j.closed
	j.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if seq < 0 {
		return nil
	}
	return j.syncThrough(seq)
}

// Err returns the journal's sticky I/O error: the first disk fault
// (failed write, fsync, or rotation) that stopped appends. nil while
// healthy. A non-nil Err means every Append fails until Reopen.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Reopen clears the sticky I/O error after the underlying disk fault
// has been repaired: the current segment — whose tail may hold a torn
// frame from the failed write — is trimmed back to its last whole
// record and abandoned, and appending resumes in a brand-new segment.
// Records acknowledged before the fault are durable per the fsync
// policy; records whose Append returned the error were never
// acknowledged and are the caller's to re-issue (the service
// re-snapshots its full job table right after a Reopen for exactly this
// reason). Reopen on a healthy journal is a no-op.
func (j *Journal) Reopen() error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.err == nil {
		return nil
	}
	_ = j.f.Close() // best effort; the fault may have wedged the handle
	j.trimTornTailLocked()
	f, err := j.fs.OpenFile(filepath.Join(j.dir, segName(j.segSeq+1)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopen: %w", err)
	}
	j.segSeq++
	j.f = f
	j.bw = bufio.NewWriterSize(f, 1<<16)
	j.segBytes = 0
	j.synced = j.appended
	j.err = nil
	j.opts.Logf("journal: reopened after disk fault; appending to %s", segName(j.segSeq))
	return nil
}

// trimTornTailLocked truncates the abandoned segment back to its last
// whole frame, so a crash before the post-reopen compaction does not
// present a mid-log tear to Replay (which refuses damage anywhere but
// the journal's final segment). Best effort: a still-faulty disk just
// leaves the tear for the compaction to cover. Caller holds mu.
func (j *Journal) trimTornTailLocked() {
	path := filepath.Join(j.dir, segName(j.segSeq))
	data, err := j.fs.ReadFile(path)
	if err != nil {
		return
	}
	off := 0
	for off+frameHeader <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > j.opts.MaxRecordBytes || off+frameHeader+n > len(data) {
			break
		}
		if crc32.Checksum(data[off+frameHeader:off+frameHeader+n], castagnoli) != crc {
			break
		}
		off += frameHeader + n
	}
	if off < len(data) {
		if err := j.fs.Truncate(path, int64(off)); err == nil {
			j.opts.Logf("journal: trimmed torn tail of %s at offset %d after disk fault", segName(j.segSeq), off)
		}
	}
}

// rotateLocked seals the current segment (flush, fsync unless
// SyncNever, close) and opens the next one. Caller holds mu.
func (j *Journal) rotateLocked() error {
	if err := j.bw.Flush(); err != nil {
		return err
	}
	if j.opts.Fsync != SyncNever {
		if err := j.f.Sync(); err != nil {
			return err
		}
		j.fsyncs.Add(1)
		j.synced = j.appended
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	f, err := j.fs.OpenFile(filepath.Join(j.dir, segName(j.segSeq+1)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	j.segSeq++
	j.f = f
	j.bw = bufio.NewWriterSize(f, 1<<16)
	j.segBytes = 0
	return nil
}

// Compact rotates to a fresh segment, calls build for a snapshot of
// the application state, writes it with an atomic rename, and deletes
// the segments the snapshot covers. build runs after the rotation, so
// the snapshot necessarily includes every record in the deleted
// segments; records appended while build runs land in the new segment
// and are replayed on top of the snapshot (replay must therefore be
// idempotent for records the snapshot already reflects). If build
// fails, Compact returns its error and writes and deletes nothing: the
// segments still hold the history.
func (j *Journal) Compact(build func() ([]byte, error)) error {
	j.compactMu.Lock()
	defer j.compactMu.Unlock()

	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	if err := j.rotateLocked(); err != nil {
		j.err = err
		j.mu.Unlock()
		return err
	}
	cover := j.segSeq // snap-N covers segments < N; the new segment is N
	j.mu.Unlock()

	snap, err := build()
	if err != nil {
		return fmt.Errorf("journal: building snapshot: %w", err)
	}
	if err := writeSnapshot(j.fs, j.dir, cover, snap); err != nil {
		return err
	}

	// Best-effort cleanup: a crash here leaves stale files that the
	// next Replay ignores and the next Compact removes.
	entries, err := j.fs.ReadDir(j.dir)
	if err != nil {
		return nil
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok && seq < cover {
			j.fs.Remove(filepath.Join(j.dir, e.Name()))
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".db"); ok && seq < cover {
			j.fs.Remove(filepath.Join(j.dir, e.Name()))
		}
	}
	j.mu.Lock()
	j.liveBytes = j.segBytes
	j.mu.Unlock()
	return nil
}

// writeSnapshot frames payload into a temp file, fsyncs it, and
// renames it into place, so a snapshot file is either absent or whole.
func writeSnapshot(fsys vfs.FS, dir string, seq int64, payload []byte) error {
	tmp := filepath.Join(dir, "snap.tmp")
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	_, werr := f.Write(hdr[:])
	if werr == nil {
		_, werr = f.Write(payload)
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", werr)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, snapName(seq))); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	syncDir(fsys, dir)
	return nil
}

// syncDir fsyncs the directory so renames and creates are durable.
// Best effort: some filesystems refuse directory fsync.
func syncDir(fsys vfs.FS, dir string) {
	if d, err := fsys.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// LiveBytes returns the segment bytes not yet covered by a snapshot —
// the compaction trigger.
func (j *Journal) LiveBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.liveBytes
}

// CurrentStats returns the journal's counters.
func (j *Journal) CurrentStats() Stats {
	j.mu.Lock()
	live, seg := j.liveBytes, j.segSeq
	j.mu.Unlock()
	return Stats{
		Records:   j.records.Load(),
		Lazy:      j.lazy.Load(),
		Fsyncs:    j.fsyncs.Load(),
		LiveBytes: live,
		Segment:   seg,
	}
}

// Close stops a pending deferred sync (waiting out one in flight), then
// flushes, fsyncs (unless SyncNever), and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true // no append can arm the timer from here on
	t := j.syncTimer
	j.mu.Unlock()
	if t != nil && t.Stop() {
		j.deferred.Done() // the callback will never run
	}
	j.deferred.Wait()

	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.bw.Flush()
	if err == nil && j.opts.Fsync != SyncNever {
		if err = j.f.Sync(); err == nil {
			j.fsyncs.Add(1)
		}
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Replayed is the result of reading a state directory.
type Replayed struct {
	// Snapshot is the newest snapshot payload, or nil if none exists.
	Snapshot []byte
	// Records holds every record appended after the snapshot, in order.
	Records [][]byte
	// Torn reports that a torn final record was truncated away.
	Torn bool
}

// Replay reads the newest snapshot plus the segments it does not
// cover, in append order. A missing or empty directory replays to an
// empty state. A torn final record — a crash mid-append at the very
// tail of the journal — is truncated in place with a warning; any
// other framing or CRC failure is a hard error, because records after
// the damage would replay out of context.
func Replay(dir string, opts Options) (*Replayed, error) {
	opts = opts.withDefaults()
	entries, err := opts.FS.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return &Replayed{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}

	var segs []int64
	var snapSeq int64 = -1
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, seq)
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".db"); ok && seq > snapSeq {
			snapSeq = seq
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })

	rep := &Replayed{}
	if snapSeq >= 0 {
		payload, err := readSnapshot(opts.FS, filepath.Join(dir, snapName(snapSeq)))
		if err != nil {
			return nil, err
		}
		rep.Snapshot = payload
		// Segments below the snapshot are leftovers from an interrupted
		// compaction; the snapshot already reflects them.
		keep := segs[:0]
		for _, s := range segs {
			if s >= snapSeq {
				keep = append(keep, s)
			}
		}
		segs = keep
	}
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1]+1 {
			return nil, fmt.Errorf("journal: missing segment %s (have %s then %s)",
				segName(segs[i-1]+1), segName(segs[i-1]), segName(segs[i]))
		}
	}

	for i, seq := range segs {
		path := filepath.Join(dir, segName(seq))
		recs, tornAt, err := readSegment(opts.FS, path, i == len(segs)-1, opts.MaxRecordBytes)
		if err != nil {
			return nil, err
		}
		rep.Records = append(rep.Records, recs...)
		if tornAt >= 0 {
			opts.Logf("journal: truncating torn final record in %s at offset %d (crash mid-append); %d records recovered",
				segName(seq), tornAt, len(recs))
			if err := opts.FS.Truncate(path, tornAt); err != nil {
				return nil, fmt.Errorf("journal: truncating %s: %w", segName(seq), err)
			}
			rep.Torn = true
		}
	}
	return rep, nil
}

// readSnapshot reads and validates the single framed snapshot record.
func readSnapshot(fsys vfs.FS, path string) ([]byte, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if len(data) < frameHeader {
		return nil, fmt.Errorf("journal: snapshot %s truncated (%d bytes)", filepath.Base(path), len(data))
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	crc := binary.LittleEndian.Uint32(data[4:8])
	if int(n) != len(data)-frameHeader {
		return nil, fmt.Errorf("journal: snapshot %s length %d does not match file size", filepath.Base(path), n)
	}
	payload := data[frameHeader:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, fmt.Errorf("journal: snapshot %s failed CRC check", filepath.Base(path))
	}
	return payload, nil
}

// readSegment parses one segment. For the journal's last segment a
// damaged record at the tail (incomplete frame, or a CRC mismatch on
// the final record) is a torn append: readSegment returns the records
// before it and the offset to truncate at. The same damage anywhere
// else is a hard error.
func readSegment(fsys vfs.FS, path string, last bool, maxRec int) (recs [][]byte, tornAt int64, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, -1, fmt.Errorf("journal: %w", err)
	}
	name := filepath.Base(path)
	off := 0
	torn := func(why string) ([][]byte, int64, error) {
		if last {
			return recs, int64(off), nil
		}
		return nil, -1, fmt.Errorf("journal: %s in non-final segment %s at offset %d", why, name, off)
	}
	for off < len(data) {
		if off+frameHeader > len(data) {
			return torn("incomplete record header")
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > maxRec {
			// A garbage length field: unparseable past this point. At the
			// journal tail this is a torn append; earlier it is corruption.
			if last {
				return recs, int64(off), nil
			}
			return nil, -1, fmt.Errorf("journal: corrupt record length %d in %s at offset %d", n, name, off)
		}
		end := off + frameHeader + n
		if end > len(data) {
			return torn("incomplete record payload")
		}
		payload := data[off+frameHeader : end]
		if crc32.Checksum(payload, castagnoli) != crc {
			if last && end == len(data) {
				// The final record of the final segment with a bad CRC is a
				// tear inside the payload write, not mid-log corruption.
				return recs, int64(off), nil
			}
			return nil, -1, fmt.Errorf("journal: corrupt record (CRC mismatch) in %s at offset %d", name, off)
		}
		recs = append(recs, append([]byte(nil), payload...))
		off = end
	}
	return recs, -1, nil
}
