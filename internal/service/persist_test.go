package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
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

// FuzzCheckpointRecord: whatever the points hold (any ints, any finite
// r), the hand-appended encoding is json.Marshal's, byte for byte, and
// decodes to the same record. A non-empty result makes the record a
// finished one, which must take json.Marshal's own path.
func FuzzCheckpointRecord(f *testing.F) {
	f.Add(0, 2, 2, 2, 0, 0, 0, 0, 0.0, false, false, uint8(32), "")
	f.Add(7, -3, 1<<40, -1, 5, 2, 1, 3, 0.333, true, true, uint8(1), "done")
	f.Add(1, 1, 1, 1, 1, 1, 1, 1, 1e-7, false, true, uint8(5), `"<&>"`)
	f.Add(math.MaxInt, math.MinInt, 0, 0, 0, 0, 0, 0, -2.5e21, true, false, uint8(3), " ")
	f.Add(0, 0, 0, 0, 0, 0, 0, 0, math.Copysign(0, -1), false, false, uint8(2), "")
	f.Fuzz(func(t *testing.T, round, m, launched, committed, aborted, failed, poisoned, attempt int,
		r float64, colored, fallback bool, n uint8, result string) {
		if math.IsInf(r, 0) || math.IsNaN(r) {
			t.Skip("encoding/json refuses a non-finite r too")
		}
		pts := make([]RoundPoint, int(n)%48)
		for i := range pts {
			pts[i] = RoundPoint{
				Round: round + i, M: m, Launched: launched, Committed: committed, Aborted: aborted,
				Failed: failed * (i % 2), Poisoned: poisoned, R: r / float64(i+1),
				Attempt: attempt, Colored: colored, Fallback: fallback && i%3 == 0,
			}
		}
		rec := checkpointRecord(pts)
		if result != "" {
			rec.Type, rec.State, rec.Result = recFinished, StateDone, result
		}
		got, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("encodeRecord: %v", err)
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encodeRecord wrote\n%s\njson.Marshal writes\n%s", got, want)
		}
		var a, b walRecord
		if err := json.Unmarshal(got, &a); err != nil {
			t.Fatalf("decoding the hand-appended record: %v", err)
		}
		if err := json.Unmarshal(want, &b); err != nil {
			t.Fatalf("decoding the reflective record: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("records decode differently:\n%+v\n%+v", a, b)
		}
	})
}

// A non-finite r has no JSON form: the record is refused, as
// json.Marshal refuses it, rather than written unreadable.
func TestCheckpointRecordRefusesNonFiniteR(t *testing.T) {
	for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := encodeRecord(checkpointRecord([]RoundPoint{{R: r}})); err == nil {
			t.Errorf("r = %v encoded without an error", r)
		}
	}
}

// FuzzReplayRecord: arbitrary bytes replayed as a WAL record — alone,
// and after a submitted record for the job they name, so they reach the
// per-type appliers — give an error or a skip, never a panic; and the
// job table they restore still encodes as a snapshot.
func FuzzReplayRecord(f *testing.F) {
	spec := ccSpec(1)
	submitted, err := json.Marshal(walRecord{Type: recSubmitted, ID: "j1", At: time.Unix(0, 0).UTC(), Spec: &spec})
	if err != nil {
		f.Fatal(err)
	}
	ckpt, err := encodeRecord(walRecord{Type: recCheckpoint, ID: "j1", Attempt: 1, Rounds: 3, Points: checkpointPoints(3)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(submitted)
	f.Add(ckpt)
	f.Add([]byte(`{"t":"started","id":"j1","attempt":2}`))
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
			var snap snapshotFile
			if err := json.Unmarshal(probe.encodeSnapshot(), &snap); err != nil {
				t.Fatalf("restored table encodes to a snapshot that does not decode: %v", err)
			}
		}
	})
}

// BenchmarkCheckpointRecord prices encoding one checkpoint of 32 points,
// the record a round-mode job writes every 32 rounds: encode is the
// journal's path, reflect the json.Marshal it replaced.
func BenchmarkCheckpointRecord(b *testing.B) {
	rec := checkpointRecord(checkpointPoints(32))
	for _, c := range []struct {
		name string
		enc  func(walRecord) ([]byte, error)
	}{
		{"encode", encodeRecord},
		{"reflect", func(r walRecord) ([]byte, error) { return json.Marshal(r) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.enc(rec); err != nil {
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
	if got := s.encodeSnapshot(); !bytes.Equal(got, wantBytes) {
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
