package service

import (
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

// The service journals every job lifecycle transition as one JSON
// record in the write-ahead log (see internal/journal for framing and
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
	recPaused     = "paused"     // preempted at a barrier, re-queued (StatePaused)
)

// walRecord is the wire form of one journaled transition. Fields are
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

// encodeRecord returns json.Marshal(rec), byte for byte, with a
// checkpoint's points appended by hand: reflecting over them cost more
// than the rest of the record. Finished records are left to json.Marshal.
func encodeRecord(rec walRecord) ([]byte, error) {
	points := rec.Points
	if len(points) == 0 || rec.State != "" || rec.Reason != "" || rec.Result != "" || rec.Error != "" {
		return json.Marshal(rec)
	}
	rec.Points = nil
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	b = slices.Grow(append(b[:len(b)-1], `,"points":[`...), 96*len(points)) // a point takes 60-90 bytes
	for _, p := range points {
		if b, err = appendPoint(b, p); err != nil {
			return nil, err
		}
	}
	b[len(b)-1] = ']' // the last point's comma
	return append(b, '}'), nil
}

// appendPoint appends p and a comma as encoding/json writes a
// RoundPoint. An R that encoding/json writes with an exponent, or
// refuses (not finite), is left to it; the rest is appended by hand.
func appendPoint(b []byte, p RoundPoint) ([]byte, error) {
	b = strconv.AppendInt(append(b, `{"round":`...), int64(p.Round), 10)
	b = strconv.AppendInt(append(b, `,"m":`...), int64(p.M), 10)
	b = strconv.AppendInt(append(b, `,"launched":`...), int64(p.Launched), 10)
	b = strconv.AppendInt(append(b, `,"committed":`...), int64(p.Committed), 10)
	b = strconv.AppendInt(append(b, `,"aborted":`...), int64(p.Aborted), 10)
	if p.Failed != 0 {
		b = strconv.AppendInt(append(b, `,"failed":`...), int64(p.Failed), 10)
	}
	if p.Poisoned != 0 {
		b = strconv.AppendInt(append(b, `,"poisoned":`...), int64(p.Poisoned), 10)
	}
	b = append(b, `,"r":`...)
	if abs := math.Abs(p.R); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		b = strconv.AppendFloat(b, p.R, 'f', -1, 64)
	} else if r, err := json.Marshal(p.R); err != nil {
		return nil, fmt.Errorf("round %d: %w", p.Round, err)
	} else {
		b = append(b, r...)
	}
	if p.Attempt != 0 {
		b = strconv.AppendInt(append(b, `,"attempt":`...), int64(p.Attempt), 10)
	}
	if p.Colored {
		b = append(b, `,"colored":true`...)
	}
	if p.Fallback {
		b = append(b, `,"fallback":true`...)
	}
	return append(b, '}', ','), nil
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
// the ack, paused the requeue, finished the terminal state a poller
// sees).
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

// journalCheckpoint records a running job's progress. It is the one
// lazy record: nothing waits on a checkpoint (a crashed job re-runs from
// spec; the checkpoint only preserves its trajectory prefix), so the
// round loop does not stall on its fsync. It is in the OS page cache on
// return — a process crash loses none — and on disk within the fsync
// interval, or as soon as any later record of any job is, since the WAL
// is one sequential stream.
func (s *Service) journalCheckpoint(j *job, points []RoundPoint) {
	if s.jnl == nil {
		return
	}
	s.appendVia(s.jnl.AppendLazy, j.progressRecord(recCheckpoint, points))
}

// journalPause records a preemption barrier: the interrupted attempt's
// progress (with the trajectory delta since the last checkpoint) under
// the already-bumped attempt counter. Written before the job re-enters
// the scheduler, so a crash on either side of the pause recovers
// cleanly — before the record lands replay sees a running job and takes
// the crash-recovery path, after it replay re-queues the paused job.
func (s *Service) journalPause(j *job, points []RoundPoint) {
	if s.jnl == nil {
		return
	}
	s.appendRecord(j.progressRecord(recPaused, points))
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
// keeps all compactions together linear in the job history.
func (s *Service) encodeSnapshot() []byte {
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
			s.cfg.Logf("specd: journal: encoding snapshot: %v", err)
			return []byte(`{"version":1,"jobs":[]}`)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, e...)
	}
	b = append(b, "]}"...)
	s.snapBytes.Store(int64(len(b)))
	return b
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
	push := func(j *job, m *mark, pts []RoundPoint) {
		for _, p := range pts {
			if !pointAfter(p, m.a, m.rd) {
				continue
			}
			j.hist.push(p)
			m.a, m.rd = pointKey(p)
		}
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
		}
	}

	for i, raw := range rep.Records {
		var rec walRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
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
			applyProgress(j, rec)
			push(j, m, rec.Points)
		case recPaused:
			// A preemption barrier: the job left its worker with the
			// recorded (already-bumped) attempt and re-queued. The next
			// started record at that attempt resumes it.
			if st.Terminal() || rec.Attempt < st.Attempt {
				continue
			}
			st.Attempt = rec.Attempt
			st.State = StatePaused
			st.StartedAt = nil
			applyProgress(j, rec)
			push(j, m, rec.Points)
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
			applyProgress(j, rec)
			push(j, m, rec.Points)
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
		case StateRunning:
			// Running at crash time: restart from spec on a fresh attempt,
			// keeping the checkpointed progress visible until it starts.
			j.status.State = StateRecovered
			j.status.Attempt++
			r.recovered++
			r.pending = append(r.pending, j)
		case StateRecovered:
			// Crashed again before the recovered attempt started; the
			// attempt counter was already bumped.
			r.recovered++
			r.pending = append(r.pending, j)
		case StatePaused:
			// Preempted and re-queued before the crash: still pending, the
			// attempt counter was bumped at the pause barrier.
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
	j.specRounds = 0
	j.prevColored = false
}

// applyProgress sets the absolute progress fields from a checkpoint or
// finished record.
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
	if st.Rounds > 0 {
		st.MeanConflictRatio = j.rSum / float64(st.Rounds)
	} else {
		st.MeanConflictRatio = 0
	}
}
