package speculation

import (
	"sort"

	"repro/internal/graph"
)

// Conflict learning for colored execution (see colored.go). During
// normal optimistic rounds the executor feeds every committed task's
// footprint — the items it acquired — to a ConflictRecorder. Two tasks
// conflict iff their footprints intersect, so the recorder's item→keys
// index *is* the conflict graph: every item held by two or more distinct
// task keys contributes the clique over those keys. Once the observed
// edge set has been quiet for a few rounds the recorder snapshots it to
// a graph.CSR, the coloring kernel partitions the keys into independent
// classes, and execution switches to lock-free colored rounds.

// ConflictKeyed gives a task a stable identity in the learned conflict
// graph. The key must survive retries and respawns of the same logical
// task (e.g. the graph node a cc task processes, the triangle ID a mesh
// task refines): the learned footprint of a key is compared against
// later executions of the same key by the staleness detector. Tasks
// without a key can still run in colored *jobs* — they just keep the
// executor in the speculative phase forever, since an unkeyed commit
// makes the learned graph unusable.
type ConflictKeyed interface {
	ConflictKey() int64
}

// keyedTask adapts any Task (typically a TaskFunc closure) to
// ConflictKeyed.
type keyedTask struct {
	key int64
	t   Task
}

func (k keyedTask) Run(ctx *Ctx) error { return k.t.Run(ctx) }

// ConflictKey implements ConflictKeyed.
func (k keyedTask) ConflictKey() int64 { return k.key }

// Keyed wraps t with a stable conflict key for the colored-execution
// learner.
func Keyed(key int64, t Task) Task { return keyedTask{key: key, t: t} }

// Recorder bounds: beyond these the recorder declares overflow and the
// job simply never leaves the speculative phase (graceful degradation,
// never incorrectness).
const (
	// DefaultRecorderMaxItems caps the number of distinct items tracked.
	DefaultRecorderMaxItems = 1 << 20
	// DefaultRecorderMaxKeysPerItem caps the keys recorded per item.
	DefaultRecorderMaxKeysPerItem = 64
	// DefaultStableRounds is the number of consecutive committing rounds
	// with no new (item, key) observation after which the edge set is
	// considered stable enough to color.
	DefaultStableRounds = 3
)

// ConflictRecorder accumulates committed-task footprints during the
// speculative learning phase. It is driven entirely from the Round
// barrier (single goroutine) and needs no locking.
type ConflictRecorder struct {
	maxItems       int
	maxKeysPerItem int

	items map[int64][]int64  // item Seq -> task keys observed holding it
	known map[int64]struct{} // every task key appearing in items

	newPairs bool // a new (item, key) pair was recorded this round
	commits  bool // this round settled at least one commit
	stable   int  // consecutive committing rounds with no new pairs

	unkeyed  bool // a committed task had no ConflictKey
	overflow bool // a bound above was exceeded
}

// NewConflictRecorder returns an empty recorder; non-positive bounds
// select the defaults.
func NewConflictRecorder(maxItems, maxKeysPerItem int) *ConflictRecorder {
	if maxItems <= 0 {
		maxItems = DefaultRecorderMaxItems
	}
	if maxKeysPerItem <= 0 {
		maxKeysPerItem = DefaultRecorderMaxKeysPerItem
	}
	return &ConflictRecorder{
		maxItems:       maxItems,
		maxKeysPerItem: maxKeysPerItem,
		items:          make(map[int64][]int64),
		known:          make(map[int64]struct{}),
	}
}

// recordCommit folds one committed task's footprint into the index.
// Called from the Round barrier before the context's acquired list is
// released.
func (r *ConflictRecorder) recordCommit(t Task, acquired []*Item) {
	r.commits = true
	if r.unkeyed || r.overflow {
		return
	}
	kt, ok := t.(ConflictKeyed)
	if !ok {
		r.unkeyed = true
		return
	}
	key := kt.ConflictKey()
	added := false
	for _, it := range acquired {
		keys, seen := r.items[it.Seq]
		if !seen && len(r.items) >= r.maxItems {
			r.overflow = true
			return
		}
		if containsKey(keys, key) {
			continue
		}
		if len(keys) >= r.maxKeysPerItem {
			r.overflow = true
			return
		}
		r.items[it.Seq] = append(keys, key)
		added = true
	}
	if added {
		r.newPairs = true
		r.known[key] = struct{}{}
	}
}

func containsKey(keys []int64, k int64) bool {
	for _, v := range keys {
		if v == k {
			return true
		}
	}
	return false
}

// roundDone closes one speculative round: a committing round with no
// new observations advances the stability counter, a round that taught
// us something resets it. Idle rounds (no commits) are neutral.
func (r *ConflictRecorder) roundDone() {
	if r.commits {
		if r.newPairs {
			r.stable = 0
		} else {
			r.stable++
		}
	}
	r.newPairs = false
	r.commits = false
}

// Stable reports whether the observed edge set has been quiet for k
// consecutive committing rounds and the graph is usable (no unkeyed
// commits, no overflow, at least one observation).
func (r *ConflictRecorder) Stable(k int) bool {
	return !r.unkeyed && !r.overflow && len(r.items) > 0 && r.stable >= k
}

// Knows reports whether a commit of the task key has been observed — the
// per-key coverage test the drive runs over the pending set before it
// pays for a Snapshot.
func (r *ConflictRecorder) Knows(key int64) bool {
	_, ok := r.known[key]
	return ok
}

// Degraded reports whether learning has been permanently disabled for
// this recording epoch (unkeyed commit or bound overflow). Reset clears
// it.
func (r *ConflictRecorder) Degraded() bool { return r.unkeyed || r.overflow }

// Unsettle zeroes the stability counter without discarding anything
// learned — used when the edge set is quiet but still incomplete (a
// pending task's key has never committed), so the drive should keep
// learning before re-attempting a coloring.
func (r *ConflictRecorder) Unsettle() { r.stable = 0 }

// Reset discards everything learned — the fallback path after a
// staleness trip, starting a fresh learning epoch.
func (r *ConflictRecorder) Reset() {
	clear(r.items)
	clear(r.known)
	r.newPairs = false
	r.commits = false
	r.stable = 0
	r.unkeyed = false
	r.overflow = false
}

// LearnedGraph is an immutable snapshot of the recorder: the conflict
// graph over task keys as a colorable CSR, plus each key's learned
// footprint (sorted item Seqs) for the staleness detector. Dense index
// i corresponds to Keys()[i].
type LearnedGraph struct {
	csr   *graph.CSR
	keys  []int64         // dense index -> task key (sorted)
	index map[int64]int32 // task key -> dense index

	// Footprints in CSR-style layout: key i's learned item Seqs are
	// fpSeqs[fpOff[i]:fpOff[i+1]], sorted for binary search.
	fpOff  []int32
	fpSeqs []int64
}

// Snapshot freezes the recorder into a LearnedGraph. Returns nil if the
// recorder is degraded or empty. Allocation here is fine: the drive
// snapshots only once the recorder is stable and knows every pending
// key, i.e. once per coloring, not per round.
func (r *ConflictRecorder) Snapshot() *LearnedGraph {
	if r.Degraded() || len(r.items) == 0 {
		return nil
	}
	lg := &LearnedGraph{}

	// Dense-number the keys (sorted for determinism).
	lg.keys = make([]int64, 0, len(r.known))
	for k := range r.known {
		lg.keys = append(lg.keys, k)
	}
	sort.Slice(lg.keys, func(i, j int) bool { return lg.keys[i] < lg.keys[j] })
	lg.index = make(map[int64]int32, len(lg.keys))
	for i, k := range lg.keys {
		lg.index[k] = int32(i)
	}
	n := len(lg.keys)

	// Conflict edges: every item shared by ≥ 2 keys contributes the
	// clique over those keys, deduplicated across items.
	edgeSet := make(map[uint64]struct{})
	var edges [][2]int32
	perKey := make([][]int64, n) // footprints under construction
	for seq, keys := range r.items {
		for i, ka := range keys {
			a := lg.index[ka]
			perKey[a] = append(perKey[a], seq)
			for _, kb := range keys[i+1:] {
				b := lg.index[kb]
				lo, hi := a, b
				if lo > hi {
					lo, hi = hi, lo
				}
				packed := uint64(uint32(lo))<<32 | uint64(uint32(hi))
				if _, dup := edgeSet[packed]; dup {
					continue
				}
				edgeSet[packed] = struct{}{}
				edges = append(edges, [2]int32{lo, hi})
			}
		}
	}
	lg.csr = graph.NewCSRFromEdges(n, edges)

	// Flatten the footprints, sorted per key.
	total := 0
	for _, fp := range perKey {
		total += len(fp)
	}
	lg.fpOff = make([]int32, n+1)
	lg.fpSeqs = make([]int64, 0, total)
	for i, fp := range perKey {
		lg.fpOff[i] = int32(len(lg.fpSeqs))
		sort.Slice(fp, func(a, b int) bool { return fp[a] < fp[b] })
		lg.fpSeqs = append(lg.fpSeqs, fp...)
	}
	lg.fpOff[n] = int32(len(lg.fpSeqs))
	return lg
}

// CSR returns the conflict graph over dense key indices.
func (lg *LearnedGraph) CSR() *graph.CSR { return lg.csr }

// NumKeys returns the number of distinct task keys in the snapshot.
func (lg *LearnedGraph) NumKeys() int { return len(lg.keys) }

// Key returns the task key at dense index i.
func (lg *LearnedGraph) Key(i int) int64 { return lg.keys[i] }

// KeyIndex returns the dense index of a task key, or −1 if the key was
// never observed — the "new task with unknown edges" staleness trigger.
func (lg *LearnedGraph) KeyIndex(key int64) int32 {
	if i, ok := lg.index[key]; ok {
		return i
	}
	return -1
}

// InFootprint reports whether item seq is part of dense key idx's
// learned footprint. Hand-rolled binary search: this runs once per
// acquired item per colored task, and must not allocate.
func (lg *LearnedGraph) InFootprint(idx int32, seq int64) bool {
	lo, hi := int(lg.fpOff[idx]), int(lg.fpOff[idx+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lg.fpSeqs[mid] < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < int(lg.fpOff[idx+1]) && lg.fpSeqs[lo] == seq
}

// FootprintLen returns the learned footprint size of dense key idx.
func (lg *LearnedGraph) FootprintLen(idx int32) int {
	return int(lg.fpOff[idx+1] - lg.fpOff[idx])
}
