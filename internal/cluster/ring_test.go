package cluster

import (
	"fmt"
	"testing"
)

// Identical hash inputs must place identically: routing is a pure
// function of (membership set, job id).
func TestRingDeterministic(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	a := buildRing(ids)
	b := buildRing([]string{"n3", "n1", "n2"}) // order must not matter
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("c%d", i)
		if got, want := b.lookup(key), a.lookup(key); got != want {
			t.Fatalf("lookup(%q) differs across identically-membered rings: %q vs %q", key, got, want)
		}
		sa, sb := a.successors(key), b.successors(key)
		if len(sa) != len(ids) || len(sb) != len(ids) {
			t.Fatalf("successors(%q) should cover all members: %v / %v", key, sa, sb)
		}
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("successor order for %q differs: %v vs %v", key, sa, sb)
			}
		}
		if sa[0] != a.lookup(key) {
			t.Fatalf("successors(%q)[0] = %q, want owner %q", key, sa[0], a.lookup(key))
		}
	}
}

func TestRingBalanceAndStability(t *testing.T) {
	ids := []string{"n1", "n2", "n3", "n4"}
	r := buildRing(ids)
	counts := make(map[string]int)
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.lookup(fmt.Sprintf("c%d", i))]++
	}
	for _, id := range ids {
		if c := counts[id]; c < keys/len(ids)/2 || c > keys/len(ids)*2 {
			t.Errorf("member %s owns %d of %d keys; want within 2x of %d", id, c, keys, keys/len(ids))
		}
	}

	// Short sequential ids — the router's actual id sequence — must
	// spread too: raw FNV-1a once parked all of "c1".."c99" on a single
	// member because the last byte barely reached the high bits.
	three := buildRing([]string{"n1", "n2", "n3"})
	short := make(map[string]int)
	for i := 1; i <= 99; i++ {
		short[three.lookup(fmt.Sprintf("c%d", i))]++
	}
	for _, id := range []string{"n1", "n2", "n3"} {
		if short[id] == 0 {
			t.Errorf("member %s owns none of c1..c99: %v", id, short)
		}
	}

	// Removing one member must not move keys between the survivors.
	small := buildRing([]string{"n1", "n2", "n3"})
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("c%d", i)
		before, after := r.lookup(key), small.lookup(key)
		if before != "n4" && before != after {
			moved++
		}
	}
	if moved > 0 {
		t.Errorf("%d keys moved between surviving members after n4 left; consistent hashing should move none", moved)
	}
}

func TestRingEmpty(t *testing.T) {
	r := buildRing(nil)
	if got := r.lookup("c1"); got != "" {
		t.Fatalf("empty ring lookup = %q, want \"\"", got)
	}
	if got := r.successors("c1"); got != nil {
		t.Fatalf("empty ring successors = %v, want nil", got)
	}
}
