package maxflow

import (
	"fmt"
	"testing"

	"repro/internal/control"
	"repro/internal/rng"
	"repro/internal/speculation"
)

// checkHeights reports the first way st's heights fail to be a valid
// labeling: h(sink) = 0, h(src) = N, every height in [0, 2N), and
// h(u) ≤ h(v) + 1 on every residual arc u→v.
func checkHeights(st *prState) error {
	n := st.net.N
	if st.height[st.sink] != 0 {
		return fmt.Errorf("h(sink) = %d", st.height[st.sink])
	}
	if st.height[st.src] != n {
		return fmt.Errorf("h(src) = %d, want N = %d", st.height[st.src], n)
	}
	for u, h := range st.height {
		if h < 0 || h >= 2*n {
			return fmt.Errorf("h(%d) = %d outside [0, 2N = %d)", u, h, 2*n)
		}
	}
	for u := range st.net.adj {
		for i := range st.net.adj[u] {
			a := &st.net.adj[u][i]
			if a.residual() > 0 && st.height[u] > st.height[a.To]+1 {
				return fmt.Errorf("residual arc %d->%d: h %d > %d + 1", u, a.To, st.height[u], st.height[a.To])
			}
		}
	}
	return nil
}

// fifoChecked drains st as PushRelabel does, one fifoStep at a time, and
// returns the discharges and global relabels it counted. With check set
// it checks the heights after every step, so after every global relabel.
func fifoChecked(t testing.TB, st *prState, check bool) (discharges, globals int) {
	t.Helper()
	for queue := st.saturateSource(); len(queue) > 0; {
		before := st.relabels
		queue = st.fifoStep(queue)
		discharges++
		if st.relabels < before {
			globals++
		}
		if check {
			if err := checkHeights(st); err != nil {
				t.Fatalf("sequential, after discharge %d: %v", discharges, err)
			}
		}
	}
	return discharges, globals
}

// drainChecked drains s in rounds of m, checking the heights after every
// round, so after every global relabel in its commit phase. It returns
// the rounds in which the relabel count fell: a lower bound on the
// global relabels, since one round may run several.
func drainChecked(t testing.TB, s *SpeculativePR, m int) (globals int) {
	t.Helper()
	for rounds := 0; s.Executor().Pending() > 0; rounds++ {
		if rounds > 1_000_000 {
			t.Fatal("speculative drive did not drain")
		}
		before := s.st.relabels
		s.Executor().Round(m)
		if s.st.relabels < before {
			globals++
		}
		if err := checkHeights(s.st); err != nil {
			t.Fatalf("speculative, after round %d: %v", rounds, err)
		}
	}
	return globals
}

// TestHeightCheckCatchesCorruption corrupts one height of a drained,
// freshly relabeled state at a time; the check must refuse each.
func TestHeightCheckCatchesCorruption(t *testing.T) {
	net := RandomNetwork(rng.New(6), 40, 160, 30)
	st := newPRState(net, 0, net.N-1)
	fifoChecked(t, st, false)
	st.globalRelabel()
	if err := checkHeights(st); err != nil {
		t.Fatalf("valid state refused: %v", err)
	}
	// An interior node u with a residual arc u→v that h(v) + 2 keeps below 2N.
	u, v := -1, -1
	for x := 1; x < net.N-1 && u < 0; x++ {
		for i := range net.adj[x] {
			a := &net.adj[x][i]
			if a.residual() > 0 && st.height[a.To]+2 < 2*net.N {
				u, v = x, a.To
				break
			}
		}
	}
	if u < 0 {
		t.Fatal("no residual arc to steepen")
	}
	for _, c := range []struct {
		name string
		node int
		h    int
	}{
		{"sink lifted", st.sink, 1},
		{"source lowered", st.src, net.N - 1},
		{"height at 2N", u, 2 * net.N},
		{"negative height", v, -1},
		{"steep residual arc", u, st.height[v] + 2},
	} {
		saved := st.height[c.node]
		st.height[c.node] = c.h
		if err := checkHeights(st); err == nil {
			t.Errorf("%s: h(%d) = %d passed the check", c.name, c.node, c.h)
		}
		st.height[c.node] = saved
	}
}

// TestNoQuadraticMode pins the end of the Θ(N²) walk: at N = 2000 the
// seeds that once took ~3.96 M discharges (2, 5, 6, 8, 9, 10) must drain
// in at most 3·N, speculative and sequential alike, like the rest.
func TestNoQuadraticMode(t *testing.T) {
	const size = 4000 // as the workload's Size: N = size/2 nodes
	for seed := uint64(1); seed <= 12; seed++ {
		// The network and pick stream the maxflow workload builds.
		r := rng.New(seed)
		net := RandomNetwork(r, size/2, size*2, 50)
		n, sink := net.N, net.N-1
		want := EdmondsKarp(net.Clone(), 0, sink)

		seq := newPRState(net.Clone(), 0, sink)
		if d, _ := fifoChecked(t, seq, false); d > 3*n {
			t.Errorf("seed %d: sequential took %d discharges, want <= 3N = %d", seed, d, 3*n)
		}
		if got := seq.excess[sink]; got != want {
			t.Errorf("seed %d: sequential %d vs oracle %d", seed, got, want)
		}

		s := NewSpeculativePR(net, 0, sink, func(k int) int { return r.Intn(k) })
		s.Executor().MaxParallel = 1
		speculation.RunAdaptive(s.Executor(), control.NewHybrid(control.DefaultHybridConfig(0.25)), 1_000_000)
		if got := s.FlowValue(); got != want {
			t.Errorf("seed %d: speculative %d vs oracle %d", seed, got, want)
		}
		if c := s.Executor().TotalCommitted(); c > int64(3*n) {
			t.Errorf("seed %d: speculative committed %d discharges, want <= 3N = %d", seed, c, 3*n)
		}
	}
}

// FuzzPushRelabel decodes a network of up to 64 nodes — byte 0 the node
// count, then (u, v, capacity) byte triples, source 0 and sink N−1 — and
// checks both drivers against Edmonds–Karp, the flows' validity, and the
// heights after every global relabel.
func FuzzPushRelabel(f *testing.F) {
	f.Add([]byte{6, 0, 1, 16, 0, 2, 13, 1, 2, 10, 2, 1, 4, 1, 3, 12, 3, 2, 9, 2, 4, 14, 4, 3, 7, 3, 5, 20, 4, 5, 4})
	f.Add([]byte{2, 0, 1, 3, 0, 1, 4})
	f.Add([]byte{4, 0, 1, 5, 1, 2, 0})
	f.Add([]byte{63, 0, 9, 200, 9, 8, 1, 8, 9, 1, 9, 62, 255, 0, 7, 90, 7, 9, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%63
		net := NewNetwork(n)
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			if u, v := int(b[0])%n, int(b[1])%n; u != v {
				net.AddEdge(u, v, int64(b[2]))
			}
		}
		sink := n - 1
		want := EdmondsKarp(net.Clone(), 0, sink)

		seq := net.Clone()
		st := newPRState(seq, 0, sink)
		fifoChecked(t, st, true)
		if got := st.excess[sink]; got != want {
			t.Fatalf("sequential %d vs oracle %d", got, want)
		}
		if got := PushRelabel(net.Clone(), 0, sink); got != want {
			t.Fatalf("PushRelabel %d vs oracle %d", got, want)
		}
		if err := seq.CheckFlow(0, sink); err != nil {
			t.Fatalf("sequential: %v", err)
		}

		spec := net.Clone()
		r := rng.New(uint64(len(data)))
		s := NewSpeculativePR(spec, 0, sink, func(k int) int { return r.Intn(k) })
		drainChecked(t, s, 8)
		if got := s.FlowValue(); got != want {
			t.Fatalf("speculative %d vs oracle %d", got, want)
		}
		if err := spec.CheckFlow(0, sink); err != nil {
			t.Fatalf("speculative: %v", err)
		}
	})
}
