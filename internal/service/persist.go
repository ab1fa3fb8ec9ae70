package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
)

// The service journals every job lifecycle transition as one record in
// the write-ahead log (see internal/journal for framing and
// durability). Replay applies records in append order onto the newest
// snapshot; because compaction rotates segments before it serializes
// the job table, a record may already be reflected in the snapshot it
// follows, so every application below is idempotent: counters are set
// absolutely, and trajectory points are pushed only when they advance
// the (attempt, round) watermark.
const (
	recSubmitted  = "submitted"  // job accepted into the queue
	recStarted    = "started"    // a worker began an attempt
	recCheckpoint = "checkpoint" // periodic round checkpoint (every K rounds)
	recFinished   = "finished"   // terminal transition: done, failed, or canceled
	recHandoff    = "handoff"    // job accepted from a dead cluster member (StateRecovered)
	// recPaused is read, not written: older versions journaled it when a
	// preemption bumped the attempt and re-queued the job to rerun from
	// spec. A paused job now resumes in place and journals a checkpoint.
	recPaused = "paused"
)

// walRecord is one journaled transition, and its JSON form that of the
// records encodeRecord does not write in the binary form. Fields are
// populated per type; absolute counter values make replay idempotent.
type walRecord struct {
	Type    string    `json:"t"`
	ID      string    `json:"id"`
	At      time.Time `json:"at"`
	Spec    *JobSpec  `json:"spec,omitempty"`    // submitted
	Attempt int       `json:"attempt,omitempty"` // started, checkpoint, finished
	// Preemptions is the absolute barrier-pause count (progress records),
	// absolute so replay over a covering snapshot stays idempotent.
	Preemptions int `json:"preemptions,omitempty"`

	// Checkpoint / finished payload: the job's attempt-local progress.
	Rounds    int            `json:"rounds,omitempty"`
	CurrentM  int            `json:"current_m,omitempty"`
	Pending   int            `json:"pending,omitempty"`
	Launched  int64          `json:"launched,omitempty"`
	Committed int64          `json:"committed,omitempty"`
	Aborted   int64          `json:"aborted,omitempty"`
	Failed    int64          `json:"failed,omitempty"`
	Poisoned  int64          `json:"poisoned,omitempty"`
	RSum      float64        `json:"r_sum,omitempty"`
	Counters  map[string]int `json:"counters,omitempty"`
	// Points carries the trajectory delta since the previous checkpoint
	// (or since the last one, for finished), so replay can rebuild the
	// ring without journaling every round twice.
	Points []RoundPoint `json:"points,omitempty"`

	// Finished payload.
	State  State  `json:"state,omitempty"`
	Reason string `json:"reason,omitempty"`
	Result string `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// recBinary tags a record written in the binary form. Every other
// record is json.Marshal output, which starts with '{', so replay
// dispatches on the first byte and reads state dirs of older versions,
// which journaled every record as JSON.
const recBinary = 0x01

// binaryTypes are the record types written in the binary form — the
// ones that carry trajectory points — indexed by their type byte.
var binaryTypes = [...]string{1: recCheckpoint, 2: recFinished, 3: recHandoff}

// Point flags of the binary form.
const (
	ptColored = 1 << iota
	ptFallback
	ptExplicitR // r follows: it is not Aborted/Launched bit for bit
)

// encodeRecord writes checkpoint, finished and handoff records in the
// binary form and the others as json.Marshal does. The binary form is
// recBinary, the type byte, the id, at (Unix nanoseconds), attempt,
// preemptions, rounds, current_m, pending, launched, committed,
// aborted, failed, poisoned, r_sum, the counters (a count, −1 for nil,
// then key-sorted pairs), for finished its state, reason, result and
// error, then the points: a count and, per point, a flags byte, the
// round as a delta from the previous point's, m, launched, committed,
// aborted, failed, poisoned, attempt and, only under ptExplicitR, r.
// Integers are zig-zag varints, strings are length-prefixed, floats are
// 8 little-endian bytes. A round-mode point never stores r: it is
// RoundStats.ConflictRatio, Aborted/Launched.
func encodeRecord(rec walRecord) ([]byte, error) {
	typ := slices.Index(binaryTypes[:], rec.Type)
	if typ < 1 {
		return json.Marshal(rec)
	}
	at := rec.At.UnixNano()
	if !time.Unix(0, at).Equal(rec.At) {
		return nil, fmt.Errorf("at %v is outside the Unix-nanosecond range", rec.At)
	}
	if !finite(rec.RSum) {
		return nil, fmt.Errorf("r_sum = %v is not finite", rec.RSum)
	}
	b := make([]byte, 0, 96+len(rec.ID)+len(rec.Result)+len(rec.Error)+12*len(rec.Points))
	b = append(b, recBinary, byte(typ))
	b = appendString(b, rec.ID)
	b = binary.AppendVarint(b, at)
	for _, v := range [...]int64{
		int64(rec.Attempt), int64(rec.Preemptions), int64(rec.Rounds), int64(rec.CurrentM), int64(rec.Pending),
		rec.Launched, rec.Committed, rec.Aborted, rec.Failed, rec.Poisoned,
	} {
		b = binary.AppendVarint(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.RSum))
	if rec.Counters == nil {
		b = binary.AppendVarint(b, -1)
	} else {
		b = binary.AppendVarint(b, int64(len(rec.Counters)))
		keys := make([]string, 0, len(rec.Counters))
		for k := range rec.Counters {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			b = binary.AppendVarint(appendString(b, k), int64(rec.Counters[k]))
		}
	}
	if rec.Type == recFinished {
		for _, s := range [...]string{string(rec.State), rec.Reason, rec.Result, rec.Error} {
			b = appendString(b, s)
		}
	}
	b = binary.AppendVarint(b, int64(len(rec.Points)))
	prev := 0
	for _, p := range rec.Points {
		var flags byte
		if p.Colored {
			flags |= ptColored
		}
		if p.Fallback {
			flags |= ptFallback
		}
		explicit := math.Float64bits(p.R) != math.Float64bits(impliedR(p))
		if explicit {
			if !finite(p.R) {
				return nil, fmt.Errorf("round %d: r = %v is not finite", p.Round, p.R)
			}
			flags |= ptExplicitR
		}
		b = append(b, flags)
		for _, v := range [...]int{p.Round - prev, p.M, p.Launched, p.Committed, p.Aborted, p.Failed, p.Poisoned, p.Attempt} {
			b = binary.AppendVarint(b, int64(v))
		}
		if explicit {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.R))
		}
		prev = p.Round
	}
	return b, nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendVarint(b, int64(len(s))), s...)
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// impliedR is the r a point carries unless the binary form stores it:
// Aborted/Launched, 0 for an idle round.
func impliedR(p RoundPoint) float64 {
	if p.Launched == 0 {
		return 0
	}
	return float64(p.Aborted) / float64(p.Launched)
}

// decodeRecord reads one journal record in either form.
func decodeRecord(raw []byte) (walRecord, error) {
	var rec walRecord
	switch {
	case len(raw) > 0 && raw[0] == '{':
		err := json.Unmarshal(raw, &rec)
		return rec, err
	case len(raw) == 0 || raw[0] != recBinary:
		return rec, errors.New("neither JSON nor a binary record")
	}
	r := recReader{b: raw[1:]}
	typ := r.byte()
	if typ < 1 || int(typ) >= len(binaryTypes) {
		return rec, fmt.Errorf("unknown binary record type %d", typ)
	}
	rec.Type = binaryTypes[typ]
	rec.ID = r.string()
	rec.At = time.Unix(0, r.varint()).UTC()
	rec.Attempt, rec.Preemptions = r.int(), r.int()
	rec.Rounds, rec.CurrentM, rec.Pending = r.int(), r.int(), r.int()
	rec.Launched, rec.Committed, rec.Aborted = r.varint(), r.varint(), r.varint()
	rec.Failed, rec.Poisoned = r.varint(), r.varint()
	rec.RSum = r.float()
	if n := r.varint(); n != -1 {
		n := r.fits(n, 2)
		rec.Counters = make(map[string]int, n)
		for range n {
			k := r.string()
			rec.Counters[k] = r.int()
		}
	}
	if rec.Type == recFinished {
		rec.State = State(r.string())
		rec.Reason, rec.Result, rec.Error = r.string(), r.string(), r.string()
	}
	if n := r.fits(r.varint(), 9); n > 0 {
		rec.Points = make([]RoundPoint, n)
		round := 0
		for i := range rec.Points {
			flags := r.byte()
			if flags&^(ptColored|ptFallback|ptExplicitR) != 0 {
				r.fail(fmt.Errorf("unknown point flags %#x", flags))
			}
			round += r.int()
			p := RoundPoint{
				Round: round, M: r.int(), Launched: r.int(), Committed: r.int(), Aborted: r.int(),
				Failed: r.int(), Poisoned: r.int(), Attempt: r.int(),
				Colored: flags&ptColored != 0, Fallback: flags&ptFallback != 0,
			}
			if flags&ptExplicitR != 0 {
				p.R = r.float()
			} else {
				p.R = impliedR(p)
			}
			rec.Points[i] = p
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return walRecord{}, fmt.Errorf("binary %s record: %w", rec.Type, r.err)
	}
	return rec, nil
}

// recReader reads the binary form. The first error sticks, and every
// read after it returns zero.
type recReader struct {
	b   []byte
	err error
}

var errShort = errors.New("truncated")

func (r *recReader) byte() byte {
	if r.err != nil || len(r.b) == 0 {
		r.fail(errShort)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *recReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errShort)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recReader) int() int { return int(r.varint()) }

// float reads 8 bytes of IEEE 754 bits, refusing a non-finite value:
// no writer stores one, and the snapshot could not hold it.
func (r *recReader) float() float64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail(errShort)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	if !finite(f) {
		r.fail(fmt.Errorf("non-finite float %v", f))
		return 0
	}
	return f
}

// fits checks a count of items of at least size bytes each, refusing
// one the remaining bytes cannot hold, so no count allocates past the
// input.
func (r *recReader) fits(n int64, size int) int {
	if r.err == nil && (n < 0 || n > int64(len(r.b)/size)) {
		r.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.b)))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *recReader) string() string {
	n := r.fits(r.varint(), 1)
	if r.err != nil {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *recReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// snapshotFile is the compaction snapshot: the full job table.
type snapshotFile struct {
	Version int           `json:"version"`
	NextID  int64         `json:"next_id"`
	Jobs    []snapshotJob `json:"jobs"`
}

type snapshotJob struct {
	Status JobStatus `json:"status"` // includes the trajectory ring
	RSum   float64   `json:"r_sum,omitempty"`
}

// snapshotEntry returns json.Marshal of the job's snapshotJob. A terminal
// job's entry is encoded once and kept: its status never changes again.
func (j *job) snapshotEntry() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.snapEntry != nil {
		return j.snapEntry, nil
	}
	st := j.status
	st.Trajectory = j.hist.slice()
	b, err := json.Marshal(snapshotJob{Status: st, RSum: j.rSum})
	if err == nil && st.Terminal() {
		j.snapEntry = b
	}
	return b, err
}

// appendRecord journals one record and, under -fsync always, waits for
// its fsync: every record but the checkpoint gates something (submitted
// the ack, finished the terminal state a poller sees).
func (s *Service) appendRecord(rec walRecord) error {
	if s.jnl == nil {
		return nil
	}
	return s.appendVia(s.jnl.Append, rec)
}

// appendVia journals one record through the given journal entry point,
// logging (not failing) on error — a dead disk degrades durability, it
// does not take the service down. It also triggers compaction once the
// live segments outgrow the configured bound.
func (s *Service) appendVia(appendFn func([]byte) error, rec walRecord) error {
	b, err := encodeRecord(rec)
	if err != nil {
		s.cfg.Logf("specd: journal: encoding %s record for %s: %v", rec.Type, rec.ID, err)
		return err
	}
	if err := appendFn(b); err != nil {
		s.cfg.Logf("specd: journal: appending %s record for %s: %v", rec.Type, rec.ID, err)
		if !errors.Is(err, journal.ErrClosed) {
			// A real disk fault (fsync error, ENOSPC, torn rotation):
			// flip into read-only degraded mode. ErrClosed is just
			// shutdown ordering, not a fault.
			s.enterDegraded(err)
		}
		return err
	}
	if s.jnl.LiveBytes() >= max(s.cfg.CompactBytes, s.snapBytes.Load()) {
		s.compact()
	}
	return nil
}

// journalSubmitted records admission. Called after the job is queued;
// the fsync policy decides when it becomes durable. The error matters
// here, unlike the later lifecycle records: an admission the journal
// could not persist must be refused, or a crash would silently lose an
// acknowledged job.
func (s *Service) journalSubmitted(j *job) error {
	if s.jnl == nil {
		return nil
	}
	j.mu.Lock()
	rec := walRecord{Type: recSubmitted, ID: j.status.ID, At: j.status.SubmittedAt}
	spec := j.status.Spec
	rec.Spec = &spec
	j.mu.Unlock()
	return s.appendRecord(rec)
}

func (s *Service) journalStarted(id string, attempt int, at time.Time) {
	if s.jnl == nil {
		return
	}
	s.appendRecord(walRecord{Type: recStarted, ID: id, At: at, Attempt: attempt})
}

// journalHandoff records a handed-off admission: the job is in
// StateRecovered at the given attempt with the handed-over trajectory
// prefix, so a crash before the re-run starts recovers the same state.
func (s *Service) journalHandoff(j *job, prefix []RoundPoint) {
	if s.jnl == nil {
		return
	}
	j.mu.Lock()
	rec := walRecord{Type: recHandoff, ID: j.status.ID, At: time.Now(), Attempt: j.status.Attempt, Points: prefix}
	j.mu.Unlock()
	s.appendRecord(rec)
}

// progressRecord captures the job's attempt-local progress under its
// lock, shared by checkpoint and finished records. appendVia encodes it
// before returning and a published counters map is never written, so
// neither the points nor the counters are copied.
func (j *job) progressRecord(typ string, points []RoundPoint) walRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	rec := walRecord{
		Type: typ, ID: st.ID, At: time.Now(), Attempt: st.Attempt,
		Preemptions: st.Preemptions,
		Rounds:      st.Rounds, CurrentM: st.CurrentM, Pending: st.Pending,
		Launched: st.Launched, Committed: st.Committed, Aborted: st.Aborted,
		Failed: st.Failed, Poisoned: st.Poisoned, RSum: j.rSum,
		Counters: st.ControllerCounters, Points: points,
	}
	if typ == recFinished {
		rec.State = st.State
		rec.Reason = st.Reason
		rec.Result = st.Result
		rec.Error = st.Error
		if st.FinishedAt != nil {
			rec.At = *st.FinishedAt
		}
	}
	return rec
}

// journalCheckpoint records a running job's progress, and a paused
// one's at its preemption barrier. It is the one lazy record: nothing
// waits on a checkpoint (a crashed job re-runs from spec; the checkpoint
// only preserves its trajectory prefix), so neither the round loop nor a
// preemption stalls on its fsync. It is in the OS page cache on
// return — a process crash loses none — and on disk within the fsync
// interval, or as soon as any later record of any job is, since the WAL
// is one sequential stream.
func (s *Service) journalCheckpoint(j *job, points []RoundPoint) {
	if s.jnl == nil {
		return
	}
	s.appendVia(s.jnl.AppendLazy, j.progressRecord(recCheckpoint, points))
}

// journalFinish records a terminal transition with any trajectory
// points not yet covered by a checkpoint.
func (s *Service) journalFinish(j *job, points []RoundPoint) {
	if s.jnl == nil {
		return
	}
	s.appendRecord(j.progressRecord(recFinished, points))
}

// compact serializes the job table into a snapshot and lets the
// journal drop the segments it covers. Concurrent triggers collapse
// into one pass. The returned error feeds degraded-mode recovery: a
// post-heal compaction must succeed before the service trusts the disk
// again, because it re-persists any state appended-then-lost while the
// journal was failing.
func (s *Service) compact() error {
	if s.jnl == nil || !s.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer s.compacting.Store(false)
	err := s.jnl.Compact(s.encodeSnapshot)
	if err != nil && err != journal.ErrClosed {
		s.cfg.Logf("specd: journal: compaction failed: %v", err)
		return err
	}
	return nil
}

// encodeSnapshot returns json.Marshal of the job table as a snapshotFile,
// assembled from the jobs' entries, and records its size: appendVia
// compacts again only once the live segments have outgrown it, which
// keeps all compactions together linear in the job history. An entry
// that does not encode fails the snapshot, so compaction keeps the
// segments rather than replace the table with a partial one.
func (s *Service) encodeSnapshot() ([]byte, error) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	b := fmt.Appendf(make([]byte, 0, s.snapBytes.Load()+4096), `{"version":1,"next_id":%d,"jobs":[`, s.nextID.Load())
	for i, j := range jobs {
		e, err := j.snapshotEntry()
		if err != nil {
			return nil, fmt.Errorf("encoding snapshot entry of %s: %w", j.status.ID, err)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, e...)
	}
	b = append(b, "]}"...)
	s.snapBytes.Store(int64(len(b)))
	return b, nil
}

// jobNum parses the numeric part of a "j<N>" job id (0 if foreign).
func jobNum(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// restored is the outcome of replaying a state directory.
type restored struct {
	jobs      map[string]*job
	order     []string // submit order (ascending numeric id)
	pending   []*job   // queued + recovered jobs, in submit order
	maxID     int64
	recovered int64 // jobs that were running at crash time
	completed int64
}

// pointKey orders trajectory points across attempts: points replay
// only when they advance past the ring's current watermark, which
// makes re-applying a record the snapshot already reflects a no-op.
func pointKey(p RoundPoint) (int, int) {
	a := p.Attempt
	if a == 0 {
		a = 1
	}
	return a, p.Round
}

func pointAfter(p RoundPoint, lastA, lastR int) bool {
	a, r := pointKey(p)
	if a != lastA {
		return a > lastA
	}
	return r > lastR
}

// restoreState rebuilds the job table from a replayed snapshot and
// record stream. Jobs that were running when the process died come
// back in StateRecovered with the attempt counter bumped and their
// checkpointed trajectory prefix intact; queued jobs come back queued;
// terminal jobs come back exactly as they finished.
func (s *Service) restoreState(rep *journal.Replayed) (*restored, error) {
	r := &restored{jobs: make(map[string]*job)}
	// watermarks tracks each job's newest trajectory point.
	type mark struct{ a, rd int }
	marks := make(map[string]*mark)

	touch := func(id string) *job {
		if j, ok := r.jobs[id]; ok {
			return j
		}
		j := &job{
			hist:     ring{max: s.cfg.HistoryCap},
			cancelCh: make(chan struct{}),
		}
		j.status.ID = id
		j.status.State = StateQueued
		j.status.Attempt = 1
		r.jobs[id] = j
		marks[id] = &mark{}
		return j
	}
	// advance pushes p onto the ring if it advances the watermark.
	advance := func(j *job, m *mark, p RoundPoint) bool {
		if !pointAfter(p, m.a, m.rd) {
			return false
		}
		j.hist.push(p)
		m.a, m.rd = pointKey(p)
		return true
	}
	push := func(j *job, m *mark, pts []RoundPoint) {
		for _, p := range pts {
			advance(j, m, p)
		}
	}
	// progress applies a checkpoint or finished record: its absolute
	// counters, then its points, of which those of the record's attempt
	// that advance the watermark are counted into the colored tallies as
	// job.record counted them live.
	progress := func(j *job, m *mark, rec walRecord) {
		applyProgress(j, rec)
		for _, p := range rec.Points {
			if advance(j, m, p) && m.a == max(rec.Attempt, 1) {
				j.countColored(p)
			}
		}
		j.setMeanConflictRatio()
	}

	if len(rep.Snapshot) > 0 {
		var snap snapshotFile
		if err := json.Unmarshal(rep.Snapshot, &snap); err != nil {
			return nil, fmt.Errorf("decoding snapshot: %w", err)
		}
		if snap.NextID > r.maxID {
			r.maxID = snap.NextID
		}
		for _, sj := range snap.Jobs {
			st := sj.Status
			if st.ID == "" {
				continue
			}
			traj := st.Trajectory
			st.Trajectory = nil
			if st.Attempt == 0 {
				st.Attempt = 1
			}
			j := &job{
				status:   st,
				rSum:     sj.RSum,
				hist:     ring{max: s.cfg.HistoryCap},
				cancelCh: make(chan struct{}),
			}
			m := &mark{}
			r.jobs[st.ID] = j
			marks[st.ID] = m
			push(j, m, traj)
			if n := len(traj); n > 0 && m.a == st.Attempt {
				// A coloring in force at the snapshot goes on in the
				// records after it.
				j.prevColored = traj[n-1].Colored && !traj[n-1].Fallback
			}
		}
	}

	for i, raw := range rep.Records {
		rec, err := decodeRecord(raw)
		if err != nil {
			return nil, fmt.Errorf("decoding journal record %d: %w", i, err)
		}
		if rec.ID == "" {
			continue
		}
		j := touch(rec.ID)
		m := marks[rec.ID]
		st := &j.status
		switch rec.Type {
		case recSubmitted:
			if st.Spec.Workload == "" && rec.Spec != nil {
				st.Spec = *rec.Spec
				st.SubmittedAt = rec.At
			}
		case recStarted:
			if st.Terminal() {
				continue
			}
			if rec.Attempt >= st.Attempt {
				if rec.Attempt > st.Attempt || st.State == StateQueued ||
					st.State == StateRecovered || st.State == StatePaused {
					resetAttemptCounters(j)
				}
				st.Attempt = rec.Attempt
				at := rec.At
				st.State = StateRunning
				st.StartedAt = &at
			}
		case recCheckpoint:
			if st.Terminal() || rec.Attempt < st.Attempt {
				continue
			}
			if rec.Attempt == st.Attempt && rec.Rounds < st.Rounds {
				continue
			}
			st.Attempt = rec.Attempt
			st.State = StateRunning
			progress(j, m, rec)
		case recPaused:
			// An older version's preemption: the attempt was bumped and
			// the job re-queued to rerun from spec, as a recovered one
			// does. A started record at that attempt resets the counters.
			if st.Terminal() || rec.Attempt < st.Attempt {
				continue
			}
			st.Attempt = rec.Attempt
			st.State = StateRecovered
			progress(j, m, rec)
		case recHandoff:
			// A handed-off admission: recovered at the recorded attempt
			// with the handed-over prefix. A later started record at the
			// same attempt flips the state to running (and, replayed again
			// after the attempt finished, the finished record wins).
			if st.Terminal() || rec.Attempt < st.Attempt {
				continue
			}
			st.Attempt = rec.Attempt
			st.State = StateRecovered
			push(j, m, rec.Points)
		case recFinished:
			if rec.Attempt < st.Attempt {
				continue
			}
			st.Attempt = max(rec.Attempt, st.Attempt)
			progress(j, m, rec)
			st.State = rec.State
			st.Reason = rec.Reason
			st.Result = rec.Result
			st.Error = rec.Error
			at := rec.At
			st.FinishedAt = &at
		default:
			s.cfg.Logf("specd: journal: skipping unknown record type %q for %s", rec.Type, rec.ID)
		}
	}

	for id, j := range r.jobs {
		if j.status.Spec.Workload == "" {
			// A record stream that starts mid-lifecycle (the submitted
			// record never became durable): nothing to re-run from.
			s.cfg.Logf("specd: journal: dropping job %s with no recoverable spec", id)
			delete(r.jobs, id)
			continue
		}
		if n := jobNum(id); n > r.maxID {
			r.maxID = n
		}
	}

	r.order = make([]string, 0, len(r.jobs))
	for id := range r.jobs {
		r.order = append(r.order, id)
	}
	sort.Slice(r.order, func(a, b int) bool {
		na, nb := jobNum(r.order[a]), jobNum(r.order[b])
		if na != nb {
			return na < nb
		}
		return r.order[a] < r.order[b]
	})

	for _, id := range r.order {
		j := r.jobs[id]
		switch j.status.State {
		case StateRunning, StatePaused:
			// Running or paused at crash time: the execution was in
			// memory only, so restart from spec on a fresh attempt,
			// keeping the checkpointed progress visible until it starts.
			j.status.State = StateRecovered
			j.status.Attempt++
			r.recovered++
			r.pending = append(r.pending, j)
		case StateRecovered:
			// Crashed again before the recovered attempt started (or an
			// older version's pause); the attempt counter was already
			// bumped.
			r.recovered++
			r.pending = append(r.pending, j)
		case StateQueued:
			r.pending = append(r.pending, j)
		default:
			r.completed++
		}
	}
	return r, nil
}

// resetAttemptCounters zeroes the attempt-local progress fields while
// preserving the trajectory ring (the pre-crash prefix).
func resetAttemptCounters(j *job) {
	st := &j.status
	st.Rounds, st.CurrentM, st.Pending = 0, 0, 0
	st.Launched, st.Committed, st.Aborted, st.Failed, st.Poisoned = 0, 0, 0, 0, 0
	st.ConflictRatio, st.MeanConflictRatio = 0, 0
	st.ColoredRounds, st.Colorings, st.Fallbacks = 0, 0, 0
	st.ControllerCounters = nil
	st.Result, st.Error, st.Reason = "", "", ""
	j.rSum = 0
	j.prevColored = false
}

// applyProgress sets the absolute progress fields from a checkpoint or
// finished record. The colored tallies, and r̄ with them, are counted
// from the record's points once they are pushed.
func applyProgress(j *job, rec walRecord) {
	st := &j.status
	if rec.Preemptions > st.Preemptions {
		st.Preemptions = rec.Preemptions
	}
	st.Rounds = rec.Rounds
	st.CurrentM = rec.CurrentM
	st.Pending = rec.Pending
	st.Launched, st.Committed, st.Aborted = rec.Launched, rec.Committed, rec.Aborted
	st.Failed, st.Poisoned = rec.Failed, rec.Poisoned
	j.rSum = rec.RSum
	st.ControllerCounters = rec.Counters
	if st.Launched > 0 {
		st.ConflictRatio = float64(st.Aborted) / float64(st.Launched)
	} else {
		st.ConflictRatio = 0
	}
}
