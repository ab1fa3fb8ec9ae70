package cluster

import "sort"

// hashRing is a consistent-hash ring over member ids. Each member
// contributes vnodes virtual points so load stays balanced with few
// members; lookups walk clockwise from the key's hash. The ring is
// immutable once built — membership changes build a new one, which
// keeps lookups lock-free for readers holding a snapshot.
type hashRing struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	id   string
}

// vnodes is the virtual-node count per member. 64 keeps the max/min
// load spread under ~30% for small clusters, which is plenty when
// least-loaded fallback smooths the rest.
const vnodes = 64

// buildRing constructs a ring over the given member ids.
func buildRing(ids []string) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, len(ids)*vnodes)}
	var buf [8]byte
	for _, id := range ids {
		for v := 0; v < vnodes; v++ {
			buf[0] = byte(v)
			buf[1] = byte(v >> 8)
			buf[2] = byte(v >> 16)
			buf[3] = byte(v >> 24)
			h := hash64(append(buf[:4], id...))
			r.points = append(r.points, ringPoint{hash: h, id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id // total order: ties never flip
	})
	return r
}

// lookup returns the member owning key, or "" on an empty ring.
func (r *hashRing) lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64([]byte(key))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id
}

// successors returns every distinct member in ring order starting at
// key's owner — the deterministic fallback sequence for placement.
func (r *hashRing) successors(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64([]byte(key))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool)
	var out []string
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
		}
	}
	return out
}

// hash64 is FNV-1a (64-bit) with a murmur-style avalanche finalizer.
// Raw FNV barely diffuses the last byte into the high bits, and ring
// lookups order on the full 64-bit value — short sequential ids like
// "c1".."c99" would otherwise land in one arc and pile every placement
// onto one member. The finalizer spreads single-byte differences across
// the whole word.
func hash64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
