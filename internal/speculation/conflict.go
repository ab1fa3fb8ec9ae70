package speculation

import (
	"slices"

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

// Footprinted is a ConflictKeyed task that knows its footprint before it
// runs. When every pending task is Footprinted a colored drive builds the
// conflict graph from the declarations and never learns (colored.go).
type Footprinted interface {
	ConflictKeyed
	// Footprint returns every item Run may acquire. Naming an item Run
	// then leaves alone only makes the graph conservative; acquiring one
	// that is not named is caught and ends the drive's trust in
	// declarations. The slice is not modified after it is returned: a
	// footprint that grows is a new slice.
	Footprint() []*Item
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

// LearnedGraph is an immutable conflict graph over task keys as a
// colorable CSR, plus each key's footprint (sorted item Seqs) for the
// staleness detector. Dense index i corresponds to Key(i). It comes from
// one of two sources — the recorder's observations (Snapshot) or the
// tasks' own declarations (Executor.declare) — through one builder.
type LearnedGraph struct {
	csr  *graph.CSR
	keys []int64 // dense index -> task key, sorted

	// Footprints in CSR-style layout: key i's item Seqs are
	// fpSeqs[fpOff[i]:fpOff[i+1]], sorted for binary search.
	fpOff  []int32
	fpSeqs []int64
}

// holding is one incidence of the item→keys index: the task at dense
// key index key acquires the item tagged seq.
type holding struct {
	seq int64
	key int32
}

// sortBySeq orders hs by Seq with a stable LSD byte-radix sort that
// skips the bytes every Seq agrees on — item tags are small integers or
// packed pairs, so most of the eight are constant. No maps and one
// scratch buffer: grouping the same incidences through a Go map cost
// four times a round-mode drain of the graph they describe, and
// slices.SortFunc nearly twice (EXPERIMENTS.md).
func sortBySeq(hs []holding) []holding {
	const signed = 1 << 63 // flips the sign bit: int64 order as uint64 order
	var differ uint64
	for _, h := range hs {
		differ |= uint64(h.seq ^ hs[0].seq)
	}
	tmp := make([]holding, len(hs))
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var next [256]int
		for _, h := range hs {
			next[byte((uint64(h.seq)^signed)>>shift)]++
		}
		at := 0
		for b, c := range next {
			next[b], at = at, at+c
		}
		for _, h := range hs {
			b := byte((uint64(h.seq) ^ signed) >> shift)
			tmp[next[b]] = h
			next[b]++
		}
		hs, tmp = tmp, hs
	}
	return hs
}

// build completes lg, whose keys are set, from the incidences hs, in any
// order that leaves a repeated (seq, key) pair adjacent after the stable
// sort by Seq: the pairs of one key contiguous (declare), or no pair
// repeated at all (Snapshot). Two keys conflict iff they hold a common
// item, so each item held by k keys contributes their k-clique.
// It reports false, leaving lg unusable, past the recorder's bounds:
// more than maxItems distinct items or more than maxHolders keys on one.
func (lg *LearnedGraph) build(hs []holding, maxItems, maxHolders int) bool {
	hs = sortBySeq(hs)
	// A footprint naming an item twice: the stable sort kept the two
	// incidences adjacent.
	hs = slices.Compact(hs)

	// runEnd returns the end of the run of one item's incidences at lo.
	runEnd := func(lo int) int {
		hi := lo + 1
		for hi < len(hs) && hs[hi].seq == hs[lo].seq {
			hi++
		}
		return hi
	}
	items, numEdges := 0, 0
	for lo, hi := 0, 0; lo < len(hs); lo = hi {
		hi = runEnd(lo)
		if items++; hi-lo > maxHolders || items > maxItems {
			return false
		}
		numEdges += (hi - lo) * (hi - lo - 1) / 2
	}
	edges := make([][2]int32, 0, numEdges)
	for lo, hi := 0, 0; lo < len(hs); lo = hi {
		hi = runEnd(lo)
		for i, a := range hs[lo:hi] {
			for _, b := range hs[lo+i+1 : hi] {
				edges = append(edges, [2]int32{a.key, b.key})
			}
		}
	}
	n := len(lg.keys)
	lg.csr = graph.NewCSRFromEdges(n, edges)

	// Scatter the Seqs to their keys. hs is in Seq order, so every
	// footprint comes out sorted.
	lg.fpOff = make([]int32, n+1)
	for _, h := range hs {
		lg.fpOff[h.key+1]++
	}
	for i := 0; i < n; i++ {
		lg.fpOff[i+1] += lg.fpOff[i]
	}
	lg.fpSeqs = make([]int64, len(hs))
	fill := slices.Clone(lg.fpOff[:n])
	for _, h := range hs {
		lg.fpSeqs[fill[h.key]] = h.seq
		fill[h.key]++
	}
	return true
}

// Snapshot freezes the recorder into a LearnedGraph. Returns nil if the
// recorder is degraded or empty. Allocation here is fine: the drive
// snapshots only once the recorder is stable and knows every pending
// key, i.e. once per coloring, not per round.
func (r *ConflictRecorder) Snapshot() *LearnedGraph {
	if r.Degraded() || len(r.items) == 0 {
		return nil
	}
	lg := &LearnedGraph{keys: make([]int64, 0, len(r.known))}
	for k := range r.known {
		lg.keys = append(lg.keys, k)
	}
	slices.Sort(lg.keys)
	var hs []holding
	for seq, keys := range r.items {
		for _, k := range keys {
			hs = append(hs, holding{seq, lg.KeyIndex(k)})
		}
	}
	if !lg.build(hs, r.maxItems, r.maxKeysPerItem) {
		return nil
	}
	return lg
}

// CSR returns the conflict graph over dense key indices.
func (lg *LearnedGraph) CSR() *graph.CSR { return lg.csr }

// NumKeys returns the number of distinct task keys in the snapshot.
func (lg *LearnedGraph) NumKeys() int { return len(lg.keys) }

// Key returns the task key at dense index i.
func (lg *LearnedGraph) Key(i int) int64 { return lg.keys[i] }

// KeyIndex returns the dense index of a task key, or −1 if the key is
// not in the graph — the "new task with unknown edges" staleness trigger.
func (lg *LearnedGraph) KeyIndex(key int64) int32 {
	// Keys that are their own index (node IDs 0..n−1) skip the search.
	if uint64(key) < uint64(len(lg.keys)) && lg.keys[key] == key {
		return int32(key)
	}
	if i, ok := slices.BinarySearch(lg.keys, key); ok {
		return int32(i)
	}
	return -1
}

// InFootprint reports whether item seq is part of dense key idx's
// footprint.
func (lg *LearnedGraph) InFootprint(idx int32, seq int64) bool {
	_, ok := slices.BinarySearch(lg.fpSeqs[lg.fpOff[idx]:lg.fpOff[idx+1]], seq)
	return ok
}

// covers reports whether every acquired item is part of dense key idx's
// footprint. Items acquired in footprint (Seq) order are matched by a
// cursor and never searched for.
func (lg *LearnedGraph) covers(idx int32, acquired []*Item) bool {
	next, end := lg.fpOff[idx], lg.fpOff[idx+1]
	for _, it := range acquired {
		if next < end && lg.fpSeqs[next] == it.Seq {
			next++
		} else if !lg.InFootprint(idx, it.Seq) {
			return false
		}
	}
	return true
}
