package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/vfs"
)

// checkpointPoints is a des-like checkpoint delta: n consecutive rounds
// at small m with fractional conflict ratios.
func checkpointPoints(n int) []RoundPoint {
	pts := make([]RoundPoint, n)
	for i := range pts {
		m := 2 + i%3
		pts[i] = RoundPoint{Round: 4000 + i, M: m, Launched: m, Committed: m - i%2, Aborted: i % 2,
			R: float64(i%2) / float64(m)}
	}
	return pts
}

// checkpointRecord is a checkpoint as progressRecord builds it.
func checkpointRecord(points []RoundPoint) walRecord {
	return walRecord{
		Type: recCheckpoint, ID: "j17", At: time.Date(2026, 3, 1, 12, 0, 0, 123456789, time.UTC),
		Attempt: 1, Rounds: 4032, CurrentM: 3, Pending: 1800,
		Launched: 11000, Committed: 8200, Aborted: 2800, RSum: 1234.5678,
		Counters: map[string]int{"branch_a": 12, "branch_b": 40, "small_m": 3900},
		Points:   points,
	}
}

// FuzzCheckpointRecord: whatever a record that carries points holds —
// any ints, any finite r, colored and fallback flags, nil or empty
// counters, a finished record's strings — it is written in the binary
// form and decodes to itself.
func FuzzCheckpointRecord(f *testing.F) {
	f.Add(0, 2, 2, 2, 0, 0, 0, 0, 0.0, false, false, uint8(32), uint8(0), uint8(3), "")
	f.Add(7, -3, 1<<40, -1, 5, 2, 1, 3, 0.333, true, true, uint8(1), uint8(1), uint8(1), "done")
	f.Add(1, 1, 1, 1, 1, 1, 1, 1, 1e-7, false, true, uint8(5), uint8(2), uint8(2), `"<&>"`)
	f.Add(math.MaxInt, math.MinInt, 0, 0, 0, 0, 0, 0, -2.5e21, true, false, uint8(3), uint8(0), uint8(5), " ")
	f.Add(0, 0, 0, 0, 0, 0, 0, 0, math.Copysign(0, -1), false, false, uint8(2), uint8(0), uint8(0), "")
	f.Fuzz(func(t *testing.T, round, m, launched, committed, aborted, failed, poisoned, attempt int,
		r float64, colored, fallback bool, n, typ, counters uint8, result string) {
		if !finite(r) {
			t.Skip("a non-finite r is refused (TestCheckpointRecordRefusesNonFiniteR)")
		}
		var pts []RoundPoint
		for i := range int(n) % 48 {
			p := RoundPoint{
				Round: round + i*m, M: m, Launched: launched, Committed: committed, Aborted: aborted,
				Failed: failed * (i % 2), Poisoned: poisoned,
				Attempt: attempt, Colored: colored, Fallback: fallback && i%3 == 0,
			}
			p.R = impliedR(p)
			if i%2 == 1 {
				p.R = r / float64(i)
			}
			pts = append(pts, p)
		}
		rec := checkpointRecord(pts)
		rec.Type = binaryTypes[1+int(typ)%3]
		rec.At = time.Unix(0, int64(round)+int64(m)).In(time.FixedZone("x", 3600))
		rec.Attempt, rec.Preemptions, rec.Rounds = attempt, poisoned, round
		rec.CurrentM, rec.Pending = m, committed
		rec.Launched, rec.Committed, rec.Aborted = int64(launched), int64(committed), int64(aborted)
		rec.Failed, rec.Poisoned, rec.RSum = int64(failed), int64(poisoned), r
		switch counters % 4 {
		case 0:
			rec.Counters = nil
		case 1:
			rec.Counters = map[string]int{}
		case 2:
			rec.Counters = map[string]int{result: m, "": aborted}
		}
		if rec.Type == recFinished {
			rec.State, rec.Reason, rec.Result, rec.Error = State(result), result+"r", result, "e"+result
		}
		b, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("encodeRecord: %v", err)
		}
		if b[0] != recBinary {
			t.Fatalf("a %s record was not written in the binary form: %q", rec.Type, b)
		}
		got, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("decoding %d bytes: %v", len(b), err)
		}
		if !got.At.Equal(rec.At) || got.At.Location() != time.UTC {
			t.Fatalf("at decoded as %v, want %v in UTC", got.At, rec.At)
		}
		got.At = rec.At
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record decodes differently:\n%+v\n%+v", got, rec)
		}
	})
}

// A non-finite r or r_sum cannot be written: the record is refused
// rather than journaled into a job table no snapshot could hold.
func TestCheckpointRecordRefusesNonFiniteR(t *testing.T) {
	for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := encodeRecord(checkpointRecord([]RoundPoint{{R: r}})); err == nil {
			t.Errorf("r = %v encoded without an error", r)
		}
		rec := checkpointRecord(nil)
		rec.RSum = r
		if _, err := encodeRecord(rec); err == nil {
			t.Errorf("r_sum = %v encoded without an error", r)
		}
	}
}

// The binary form of a checkpoint of the des-like points is a fraction
// of its JSON: r is implied by the counts, and a round is a one-byte
// delta.
func TestCheckpointRecordIsCompact(t *testing.T) {
	rec := checkpointRecord(checkpointPoints(32))
	b, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(b)*5 > len(j) {
		t.Errorf("32-point checkpoint: %d bytes binary, %d JSON; want at least 5× smaller", len(b), len(j))
	}
}

// oversizedRecords are binary records whose count or length prefixes
// claim more than the bytes that follow hold.
func oversizedRecords() [][]byte {
	head := func(typ byte) []byte { // a record up to its counters
		b := appendString([]byte{recBinary, typ}, "j1")
		b = append(b, make([]byte, 11)...)            // at and the ten counts: all zero varints
		return binary.LittleEndian.AppendUint64(b, 0) // r_sum
	}
	huge := []int64{1 << 20, 1 << 40, math.MaxInt64}
	var out [][]byte
	for _, n := range huge {
		out = append(out,
			binary.AppendVarint([]byte{recBinary, 1}, n),                               // id length
			binary.AppendVarint(head(1), n),                                            // counters
			binary.AppendVarint(binary.AppendVarint(head(1), -1), n),                   // points
			binary.AppendVarint(binary.AppendVarint(head(2), -1), n),                   // finished state
			append(binary.AppendVarint(binary.AppendVarint(head(1), 1), n), 'k', 0, 0), // counter key
		)
	}
	return out
}

// A count the bytes cannot hold is an error, and allocates nothing in
// proportion to it. The least of three decodes is taken, so that another
// goroutine's allocation cannot fail the test.
func TestDecodeRecordBoundsCounts(t *testing.T) {
	for _, b := range oversizedRecords() {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decodeRecord(b)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%x decoded without an error", b)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 1<<16 {
			t.Errorf("%x: decoding allocated %d bytes", b, least)
		}
	}
}

// FuzzReplayRecord: arbitrary bytes replayed as a WAL record — alone,
// and after a submitted record for the job they name, so they reach the
// per-type appliers — give an error or a skip, never a panic; and the
// job table they restore still encodes as a snapshot. The seeds include
// a binary checkpoint cut at every byte and records whose count or
// length prefixes exceed their bytes.
func FuzzReplayRecord(f *testing.F) {
	spec := ccSpec(1)
	submitted, err := json.Marshal(walRecord{Type: recSubmitted, ID: "j1", At: time.Unix(0, 0).UTC(), Spec: &spec})
	if err != nil {
		f.Fatal(err)
	}
	ckpt, err := encodeRecord(walRecord{Type: recCheckpoint, ID: "j1", At: time.Unix(0, 0), Attempt: 1, Rounds: 3, Points: checkpointPoints(3)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(submitted)
	for i := 1; i <= len(ckpt); i++ {
		f.Add(ckpt[:i])
	}
	for _, b := range oversizedRecords() {
		f.Add(b)
	}
	f.Add([]byte(`{"t":"started","id":"j1","attempt":2}`))
	f.Add([]byte(`{"t":"checkpoint","id":"j1","attempt":1,"rounds":2,"points":[{"round":0,"m":2,"r":0.5}]}`))
	f.Add([]byte(`{"t":"finished","id":"j1","attempt":1,"state":"done","points":[{"round":-1}]}`))
	f.Add([]byte(`{"t":"handoff","id":"j1","attempt":9,"points":null}`))
	f.Add([]byte(`{"t":"paused","id":"j1","counters":{"a":1},"preemptions":-4}`))
	f.Add([]byte(`{"t":"bogus","id":"j1"}`))
	f.Add([]byte(`not json`))
	cfg := Config{HistoryCap: 4}.withDefaults()
	f.Fuzz(func(t *testing.T, rec []byte) {
		for _, recs := range [][][]byte{{rec}, {submitted, rec}} {
			probe := &Service{cfg: cfg}
			rst, err := probe.restoreState(&journal.Replayed{Records: recs})
			if err != nil {
				continue
			}
			probe.jobs, probe.order = rst.jobs, rst.order
			b, err := probe.encodeSnapshot()
			if err != nil {
				t.Fatalf("restored table does not encode as a snapshot: %v", err)
			}
			var snap snapshotFile
			if err := json.Unmarshal(b, &snap); err != nil {
				t.Fatalf("restored table encodes to a snapshot that does not decode: %v", err)
			}
		}
	})
}

// BenchmarkCheckpointRecord prices one checkpoint of 32 points, the
// record a round-mode job writes every 32 rounds: encode is the
// journal's path, json the json.Marshal every record was before the
// binary form, and decode replay's read of it.
func BenchmarkCheckpointRecord(b *testing.B) {
	rec := checkpointRecord(checkpointPoints(32))
	raw, err := encodeRecord(rec)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"encode", func() error { _, err := encodeRecord(rec); return err }},
		{"json", func() error { _, err := json.Marshal(rec); return err }},
		{"decode", func() error { _, err := decodeRecord(raw); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// snapCountFS counts snapshot renames — one per compaction.
type snapCountFS struct {
	vfs.OS
	snaps *atomic.Int64
}

func (fs snapCountFS) Rename(oldpath, newpath string) error {
	if strings.Contains(newpath, "snap-") {
		fs.snaps.Add(1)
	}
	return fs.OS.Rename(oldpath, newpath)
}

// Compaction used to re-encode every job ever submitted each time the
// live WAL reached CompactBytes, so its total work grew with the square
// of the history. With the trigger at the last snapshot's size, N
// terminal jobs at a tiny CompactBytes compact O(log N) times, and the
// snapshot is still exactly json.Marshal of the job table. Jobs run one
// at a time, so no append's compaction collapses into another's.
func TestCompactionWorkLinear(t *testing.T) {
	const n = 128
	var snaps atomic.Int64
	cfg := durableCfg(t.TempDir())
	cfg.CompactBytes = 1
	cfg.Fsync = journal.SyncNever
	cfg.FS = snapCountFS{snaps: &snaps}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Shutdown(context.Background())
	for i := 0; i < n; i++ {
		spec := ccSpec(uint64(i + 1))
		spec.Size = 40
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		for {
			cur, _ := s.JobTail(st.ID, 0)
			if cur.Terminal() && s.Running() == 0 {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	t.Logf("%d jobs, %d compactions", n, snaps.Load())
	if limit := int64(3 * bits.Len(n)); snaps.Load() > limit {
		t.Errorf("%d jobs compacted %d times, want at most %d (3·log₂ n)", n, snaps.Load(), limit)
	}

	s.mu.Lock()
	want := snapshotFile{Version: 1, NextID: s.nextID.Load()}
	for _, id := range s.order {
		st := s.jobs[id].snapshot(-1)
		want.Jobs = append(want.Jobs, snapshotJob{Status: st, RSum: s.jobs[id].rSum})
	}
	s.mu.Unlock()
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.encodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Errorf("snapshot (%d bytes) differs from json.Marshal of the job table (%d bytes)", len(got), len(wantBytes))
	}
}

// The trajectory ring allocates as the job records rounds: a 3-round job
// holds a few points, not HistoryCap of them, and a full ring still
// keeps the newest HistoryCap points in order.
func TestRingGrowsOnDemand(t *testing.T) {
	r := ring{max: 256}
	for i := 0; i < 3; i++ {
		r.push(RoundPoint{Round: i})
	}
	if got := r.slice(); len(got) != 3 || cap(r.buf) > 8 {
		t.Errorf("3-round ring: %d points in a buffer of %d, want 3 in at most 8", len(got), cap(r.buf))
	}

	r = ring{max: 5}
	for i := 0; i < 12; i++ {
		r.push(RoundPoint{Round: i})
	}
	got := r.slice()
	for i, p := range got {
		if p.Round != 7+i {
			t.Fatalf("wrapped ring holds rounds %v, want 7..11", got)
		}
	}
	if len(got) != 5 || len(r.buf) != 5 {
		t.Fatalf("wrapped ring: %d points in a buffer of %d, want 5", len(got), len(r.buf))
	}
	if tail := r.tail(2); tail[0].Round != 10 || tail[1].Round != 11 {
		t.Errorf("tail(2) = %v, want rounds 10, 11", tail)
	}
}

// A snapshot entry that fails to encode fails the compaction, which
// then keeps the segments: the job table replays whole.
func TestCompactionKeepsJobsWhenAnEntryFailsToEncode(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		st, err := s.Submit(ccSpec(seed))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		waitTerminal(t, s, st.ID, 10*time.Second)
		ids = append(ids, st.ID)
	}
	waitIdle(t, s)
	s.mu.Lock()
	j := s.jobs[ids[1]]
	s.mu.Unlock()
	j.mu.Lock()
	j.rSum, j.snapEntry = math.NaN(), nil
	j.mu.Unlock()
	if err := s.compact(); err == nil {
		t.Error("compaction of a table with an entry that does not encode succeeded")
	}
	s.Shutdown(context.Background())

	s2, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Shutdown(context.Background())
	for _, id := range ids {
		if st, ok := s2.Job(id); !ok || st.State != StateDone {
			t.Errorf("after reopen, job %s: found %v, state %q; want done", id, ok, st.State)
		}
	}
}

// parentJournal is a state dir an earlier version wrote, every record
// JSON: a done cc job, a done des job of 319 rounds (nine checkpoints),
// and a job cut after three checkpoints, copied behind the live
// service's back. restored.json is the job table that version replayed
// it to, under parentCfg.
const parentJournal = "testdata/parent-journal"

var parentCfg = Config{HistoryCap: 4096}

// copyParentJournal copies the parent's state dir where a test may
// write to it.
func copyParentJournal(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join(parentJournal, "state")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// replayTable replays a state dir into its job table in submit order.
func replayTable(t *testing.T, dir string) []snapshotJob {
	t.Helper()
	rep, err := journal.Replay(dir, journal.Options{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	rst, err := (&Service{cfg: parentCfg.withDefaults()}).restoreState(rep)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	var out []snapshotJob
	for _, id := range rst.order {
		j := rst.jobs[id]
		out = append(out, snapshotJob{Status: j.snapshot(-1), RSum: j.rSum})
	}
	return out
}

// sameJob compares two restored jobs, their instants with Equal.
func sameJob(t *testing.T, got, want snapshotJob) {
	t.Helper()
	instants := func(st *JobStatus) []*time.Time {
		return []*time.Time{&st.SubmittedAt, st.StartedAt, st.FinishedAt}
	}
	g, w := got.Status, want.Status
	for i, gi := range instants(&g) {
		wi := instants(&w)[i]
		if (gi == nil) != (wi == nil) || gi != nil && !gi.Equal(*wi) {
			t.Errorf("job %s: instant %d is %v, want %v", w.ID, i, gi, wi)
		}
	}
	g.SubmittedAt, g.StartedAt, g.FinishedAt = w.SubmittedAt, w.StartedAt, w.FinishedAt
	if got.RSum != want.RSum || !reflect.DeepEqual(g, w) {
		t.Errorf("job %s restores as\n%+v (r_sum %v)\nwant\n%+v (r_sum %v)", w.ID, g, got.RSum, w, want.RSum)
	}
}

// The parent's JSON journal replays to the parent's job table; and
// binary records appended after its JSON ones — the cut job going on at
// its attempt, then rerun on the next — extend the parent's trajectory
// prefix point for point.
func TestParentJournalReplays(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(parentJournal, "restored.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []snapshotJob
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := replayTable(t, copyParentJournal(t))
	if len(got) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		sameJob(t, got[i], want[i])
	}

	cut := want[len(want)-1].Status
	if cut.State != StateRecovered || len(cut.Trajectory) == 0 {
		t.Fatalf("the parent's last job is %s with %d points, want a recovered prefix", cut.State, len(cut.Trajectory))
	}
	last := cut.Trajectory[len(cut.Trajectory)-1]
	more := func(attempt, from int) []RoundPoint {
		pts := checkpointPoints(32)
		for i := range pts {
			pts[i].Round, pts[i].Attempt = from+i, attempt
		}
		pts[5].Failed, pts[5].R = 1, 0.75 // an async window with failures stores r
		return pts
	}
	same, next := more(0, last.Round+1), more(2, 0)
	at := cut.StartedAt.Add(time.Second)
	dir := copyParentJournal(t)
	jnl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []walRecord{
		{Type: recCheckpoint, ID: cut.ID, At: at, Attempt: 1, Rounds: last.Round + 33, Points: same},
		{Type: recStarted, ID: cut.ID, At: at, Attempt: 2},
		{Type: recCheckpoint, ID: cut.ID, At: at, Attempt: 2, Rounds: 32, Points: next},
	} {
		b, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	got = replayTable(t, dir)
	traj := got[len(got)-1].Status.Trajectory
	wantTraj := append(append(append([]RoundPoint{}, cut.Trajectory...), same...), next...)
	if !reflect.DeepEqual(traj, wantTraj) {
		t.Errorf("mixed-form journal replays %d points, want the parent's %d then %d new", len(traj), len(cut.Trajectory), len(same)+len(next))
	}
	for i := range want[:len(want)-1] {
		sameJob(t, got[i], want[i])
	}
}

// A colored job's status replays to what it was live: its colored
// super-rounds, colorings and fallbacks are counted from the journaled
// points, and r̄ averages the speculative rounds only, from the record
// stream alone and from a snapshot taken at any point with the records
// after it.
func TestColoredJobReplaysAsLive(t *testing.T) {
	spec := JobSpec{Workload: "stable", Controller: "hybrid", Mode: ModeColored, Seed: 1, Parallel: 1}
	at := time.Unix(1, 0).UTC()
	live := &job{hist: ring{max: 64}}
	live.status = JobStatus{ID: "j1", Spec: spec, State: StateRunning, Attempt: 1, SubmittedAt: at, StartedAt: &at}
	encode := func(rec walRecord) []byte {
		b, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	records := [][]byte{
		encode(walRecord{Type: recSubmitted, ID: "j1", At: at, Spec: &spec}),
		encode(walRecord{Type: recStarted, ID: "j1", At: at, Attempt: 1}),
	}
	// Two speculative rounds, a coloring of three super-rounds that ends
	// in a fallback, a speculative round, then a second coloring.
	var points []RoundPoint
	for i, kind := range "ssccfsccc" {
		p := RoundPoint{Round: i, M: 8, Launched: 8, Committed: 8, Attempt: 1, Colored: kind != 's', Fallback: kind == 'f'}
		if kind == 's' {
			p.Committed, p.Aborted, p.R = 8-i, i, float64(i)/8
		}
		points = append(points, p)
	}
	var snapshots [][]byte // the snapshot after each checkpoint
	var cuts []int         // records in the stream at each snapshot
	for k := 0; k < len(points); k += 3 {
		chunk := points[k:min(k+3, len(points))]
		for _, p := range chunk {
			live.record(p, 100-p.Round, nil)
		}
		typ := recCheckpoint
		if k+3 >= len(points) {
			typ = recFinished
			live.status.State, live.status.FinishedAt = StateDone, &at
		}
		records = append(records, encode(live.progressRecord(typ, chunk)))
		entry, err := live.snapshotEntry()
		if err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, fmt.Appendf(nil, `{"version":1,"next_id":1,"jobs":[%s]}`, entry))
		cuts = append(cuts, len(records))
	}
	want := live.snapshot(-1)
	if want.ColoredRounds != 6 || want.Colorings != 2 || want.Fallbacks != 1 || want.MeanConflictRatio != (0+1.0/8+5.0/8)/3 {
		t.Fatalf("live: %d colored rounds, %d colorings, %d fallbacks, mean r %v", want.ColoredRounds, want.Colorings, want.Fallbacks, want.MeanConflictRatio)
	}
	replay := func(name string, rep *journal.Replayed) {
		rst, err := (&Service{cfg: Config{HistoryCap: 64}.withDefaults()}).restoreState(rep)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := rst.jobs["j1"].snapshot(-1)
		got.FinishedAt = want.FinishedAt // the finished record's instant, compared by Equal below
		if !reflect.DeepEqual(got, want) || !rst.jobs["j1"].status.FinishedAt.Equal(*want.FinishedAt) {
			t.Errorf("%s replays as\n%+v\nwant\n%+v", name, got, want)
		}
	}
	replay("the record stream", &journal.Replayed{Records: records})
	for i, snap := range snapshots[:len(snapshots)-1] {
		replay(fmt.Sprintf("snapshot %d and the records after it", i), &journal.Replayed{Snapshot: snap, Records: records[cuts[i]:]})
	}
}
