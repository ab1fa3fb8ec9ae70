package speculation

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestSnapshotConcurrent hammers Snapshot from several monitor
// goroutines while rounds are in flight — the access pattern a status
// endpoint produces. Run under -race (the Makefile's race target covers
// this package); it also checks the counters are monotone and
// internally consistent at every sample.
func TestSnapshotConcurrent(t *testing.T) {
	r := rng.New(7)
	g := graph.RandomWithAvgDegree(r, 400, 12)
	wl := NewGraphWorkload(g)
	e := NewGraphExecutor(wl, r.Split())
	e.MaxParallel = 4
	defer e.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last Snapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Snapshot()
				// Each counter is individually monotone; cross-field
				// invariants only hold at round boundaries (checked after
				// the drain below).
				if s.Launched < last.Launched || s.Committed < last.Committed || s.Aborted < last.Aborted {
					t.Errorf("counters went backwards: %+v then %+v", last, s)
					return
				}
				last = s
			}
		}()
	}

	for e.Pending() > 0 {
		e.Round(32)
	}
	close(stop)
	wg.Wait()

	s := e.Snapshot()
	if s.Pending != 0 {
		t.Errorf("drained executor reports pending=%d", s.Pending)
	}
	if s.Committed != 400 {
		t.Errorf("committed=%d, want 400 (one per node)", s.Committed)
	}
	if s.Launched != s.Committed+s.Aborted {
		t.Errorf("launched %d != committed %d + aborted %d", s.Launched, s.Committed, s.Aborted)
	}
	if got := s.ConflictRatio(); got != e.OverallConflictRatio() {
		t.Errorf("snapshot ratio %v != executor ratio %v", got, e.OverallConflictRatio())
	}
}

// TestOrderedSnapshot checks an ordered executor's one-call snapshot
// against its individual accessors after a drained run.
func TestOrderedSnapshot(t *testing.T) {
	e := NewOrderedExecutor()
	defer e.Close()
	e.Add(chainTask{key: Key{Time: 1}, depth: 8})
	for e.Pending() > 0 {
		e.Round(4)
	}
	s := e.Snapshot()
	if s.Pending != 0 {
		t.Errorf("pending=%d after drain", s.Pending)
	}
	if s.Launched != e.TotalLaunched() || s.Committed != e.TotalCommitted() {
		t.Errorf("snapshot %+v disagrees with accessors", s)
	}
	if s.Aborted != e.TotalAborted() || e.TotalPremature() > s.Aborted {
		t.Errorf("aborted=%d (accessor %d), premature=%d: premature must be part of aborted",
			s.Aborted, e.TotalAborted(), e.TotalPremature())
	}
}

// chainTask spawns one successor per commit until depth runs out.
type chainTask struct {
	key   Key
	depth int
}

func (c chainTask) Key() Key { return c.key }

func (c chainTask) Run(ctx *Ctx) error {
	if c.depth > 0 {
		ctx.Spawn(chainTask{key: Key{Time: c.key.Time + 1}, depth: c.depth - 1})
	}
	return nil
}
