package cluster

// ProfilePoint records one step of agglomerative clustering's available
// parallelism.
type ProfilePoint struct {
	Step        int
	Clusters    int
	MutualPairs int // merges executable in parallel this step
}

// MutualPairs returns the current mutual-nearest-neighbor pairs. Since
// nearest neighbors are unique (deterministic tie-break), the pairs form
// a matching: they are pairwise disjoint, so all of them can merge in
// the same step — the instantaneous available parallelism.
func (c *Clustering) MutualPairs() [][2]int {
	nearest := make([]int, len(c.live))
	for i, cl := range c.live {
		nearest[i], _, _ = c.Nearest(cl.ID)
	}
	var pairs [][2]int
	for i, cl := range c.live {
		if b := nearest[i]; cl.ID < b && nearest[c.byID[b].idx] == cl.ID {
			pairs = append(pairs, [2]int{cl.ID, b})
		}
	}
	return pairs
}

// ParallelismProfile charts mutual-pair counts across a full
// agglomeration: each step merges every mutual pair (the maximal
// parallel step), until target clusters remain.
func (c *Clustering) ParallelismProfile(target int) []ProfilePoint {
	if target < 1 {
		target = 1
	}
	var out []ProfilePoint
	for step := 0; c.NumClusters() > target; step++ {
		pairs := c.MutualPairs()
		if len(pairs) == 0 {
			break
		}
		out = append(out, ProfilePoint{
			Step:        step,
			Clusters:    c.NumClusters(),
			MutualPairs: len(pairs),
		})
		for _, p := range pairs {
			if c.NumClusters() <= target {
				break
			}
			c.MergePair(p[0], p[1])
		}
	}
	return out
}
