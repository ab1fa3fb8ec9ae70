package speculation

import (
	"slices"

	"repro/internal/graph"
)

// The conflict graph of colored execution (see colored.go). Two tasks
// conflict iff their footprints share an item, so an item→keys index over
// the footprints *is* the conflict graph: every item held by two or more
// task keys contributes the clique over those keys. A colored drive
// builds it from what Footprinted tasks declare before they run
// (Executor.declare), chaining each item's holders through a slot on the
// Item itself, and the coloring kernel partitions the keys into
// independent classes. The graph is a schedule, not a guarantee: each
// class still runs as a round, whose walk books what the tasks actually
// acquired in the same Item slot, so a declaration that lied costs a walk
// abort, never a conflicting commit. Items are compared by identity
// throughout, never by Seq. There is no other source: a work-set that
// does not declare is driven in rounds.

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
	// that is not named can put two tasks that share an item in one
	// class, and when they do, the class's walk aborts the later one and
	// the drive stops trusting declarations. The slice is not modified
	// after it is returned: a footprint that grows is a new slice.
	Footprint() []*Item
}

// Declare bounds: past these, declare refuses and the drive runs in
// rounds.
const (
	maxDeclaredItems   = 1 << 20 // distinct items in one graph
	maxDeclaredHolders = 64      // keys declaring one item
)

// ConflictGraph is an immutable conflict graph over task keys as a
// colorable CSR. Dense index i corresponds to the i-th smallest key.
type ConflictGraph struct {
	csr  *graph.CSR
	keys []int64 // dense index -> task key, sorted
}

// holding is one incidence of the item→keys index: the task at dense
// key index key declares an item that rank keys declared before it, the
// latest of them at hs[prev] (−1 when rank is 0).
type holding struct {
	key, prev, rank int32
}

// build completes cg, whose keys are set, from fps, the footprint of each
// dense key index, in one pass: each incidence is chained to the previous
// holding of its item through the item's slot (gen, head), so a repeat
// within one footprint is the chain's head and is skipped, and both
// declare bounds are checked as the chains grow. Two keys conflict iff
// they hold a common item, so each item held by k keys contributes their
// k-clique: one edge from each holding to every holding down its chain.
// It reports false, leaving cg unusable, past the declare bounds.
func (cg *ConflictGraph) build(fps [][]*Item) bool {
	total := 0
	for _, fp := range fps {
		total += len(fp)
	}
	gen := stamps.Add(1)
	hs := make([]holding, 0, total)
	items, numEdges := 0, 0
	for k, fp := range fps {
		for _, it := range fp {
			h := holding{key: int32(k), prev: -1}
			if it.gen == gen {
				last := hs[it.head]
				if last.key == h.key {
					continue // named twice in one footprint
				}
				h.prev, h.rank = it.head, last.rank+1
				if h.rank >= maxDeclaredHolders {
					return false
				}
			} else if items++; items > maxDeclaredItems {
				return false
			}
			it.gen, it.head = gen, int32(len(hs))
			numEdges += int(h.rank)
			hs = append(hs, h)
		}
	}
	edges := make([][2]int32, 0, numEdges)
	for _, h := range hs {
		for p := h.prev; p >= 0; p = hs[p].prev {
			edges = append(edges, [2]int32{hs[p].key, h.key})
		}
	}
	cg.csr = graph.NewCSRFromEdges(len(cg.keys), edges)
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

// place returns the dense index of t's key, or −1 when t is not
// Footprinted or its key was not declared: a task the coloring cannot
// place.
func (cg *ConflictGraph) place(t Task) int32 {
	if ft, ok := t.(Footprinted); ok {
		return cg.KeyIndex(ft.ConflictKey())
	}
	return -1
}
