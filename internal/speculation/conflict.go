package speculation

import (
	"slices"

	"repro/internal/graph"
)

// The conflict graph of colored execution (see colored.go). Two tasks
// conflict iff their footprints intersect, so an item→keys index over
// the footprints *is* the conflict graph: every item held by two or more
// task keys contributes the clique over those keys. A colored drive
// builds it from what Footprinted tasks declare before they run
// (Executor.declare), the coloring kernel partitions the keys into
// independent classes, and every colored commit is checked against the
// declared footprint of its key (covers). There is no other source: a
// work-set that does not declare is driven in rounds.

// Footprinted is a task that knows, before it runs, its identity in the
// conflict graph and every item it may acquire. When every pending task
// is Footprinted a colored drive builds the conflict graph from the
// declarations (colored.go).
type Footprinted interface {
	// ConflictKey is the task's vertex in the conflict graph. It must
	// survive retries and respawns of the same logical task (the graph
	// node a cc task processes, a stable chain): a colored super-round
	// looks each pending task up by its key.
	ConflictKey() int64
	// Footprint returns every item Run may acquire. Naming an item Run
	// then leaves alone only makes the graph conservative; acquiring one
	// that is not named is caught and ends the drive's trust in
	// declarations. The slice is not modified after it is returned: a
	// footprint that grows is a new slice.
	Footprint() []*Item
}

// Declare bounds: past these, declare refuses and the drive runs in
// rounds.
const (
	maxDeclaredItems   = 1 << 20 // distinct items in one graph
	maxDeclaredHolders = 64      // keys declaring one item
)

// ConflictGraph is an immutable conflict graph over task keys as a
// colorable CSR, plus each key's footprint (sorted item Seqs) for the
// staleness check. Dense index i corresponds to the i-th smallest key.
type ConflictGraph struct {
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

// build completes cg, whose keys are set, from the incidences hs, in
// any order that keeps the pairs of one key contiguous, so a repeated
// (seq, key) pair is adjacent after the stable sort by Seq. Two keys
// conflict iff they hold a common item, so each item held by k keys
// contributes their k-clique. It reports false, leaving cg unusable,
// past the declare bounds.
func (cg *ConflictGraph) build(hs []holding) bool {
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
		if items++; hi-lo > maxDeclaredHolders || items > maxDeclaredItems {
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
	n := len(cg.keys)
	cg.csr = graph.NewCSRFromEdges(n, edges)

	// Scatter the Seqs to their keys. hs is in Seq order, so every
	// footprint comes out sorted.
	cg.fpOff = make([]int32, n+1)
	for _, h := range hs {
		cg.fpOff[h.key+1]++
	}
	for i := 0; i < n; i++ {
		cg.fpOff[i+1] += cg.fpOff[i]
	}
	cg.fpSeqs = make([]int64, len(hs))
	fill := slices.Clone(cg.fpOff[:n])
	for _, h := range hs {
		cg.fpSeqs[fill[h.key]] = h.seq
		fill[h.key]++
	}
	return true
}

// CSR returns the conflict graph over dense key indices.
func (cg *ConflictGraph) CSR() *graph.CSR { return cg.csr }

// NumKeys returns the number of distinct task keys in the graph.
func (cg *ConflictGraph) NumKeys() int { return len(cg.keys) }

// KeyIndex returns the dense index of a task key, or −1 if the key is
// not in the graph — the "new work the declarations did not cover"
// staleness trigger.
func (cg *ConflictGraph) KeyIndex(key int64) int32 {
	// Keys that are their own index (node IDs 0..n−1) skip the search.
	if uint64(key) < uint64(len(cg.keys)) && cg.keys[key] == key {
		return int32(key)
	}
	if i, ok := slices.BinarySearch(cg.keys, key); ok {
		return int32(i)
	}
	return -1
}

// InFootprint reports whether item seq is part of dense key idx's
// footprint.
func (cg *ConflictGraph) InFootprint(idx int32, seq int64) bool {
	_, ok := slices.BinarySearch(cg.fpSeqs[cg.fpOff[idx]:cg.fpOff[idx+1]], seq)
	return ok
}

// covers reports whether every acquired item is part of dense key idx's
// footprint. Items acquired in footprint (Seq) order are matched by a
// cursor and never searched for.
func (cg *ConflictGraph) covers(idx int32, acquired []*Item) bool {
	next, end := cg.fpOff[idx], cg.fpOff[idx+1]
	for _, it := range acquired {
		if next < end && cg.fpSeqs[next] == it.Seq {
			next++
		} else if !cg.InFootprint(idx, it.Seq) {
			return false
		}
	}
	return true
}
