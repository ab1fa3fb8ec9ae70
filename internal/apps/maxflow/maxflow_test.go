package maxflow

import (
	"testing"

	"repro/internal/control"
	"repro/internal/rng"
	"repro/internal/speculation"
)

// The classic textbook instance with known max flow 23.
func clrsNetwork() *Network {
	net := NewNetwork(6)
	net.AddEdge(0, 1, 16)
	net.AddEdge(0, 2, 13)
	net.AddEdge(1, 2, 10)
	net.AddEdge(2, 1, 4)
	net.AddEdge(1, 3, 12)
	net.AddEdge(3, 2, 9)
	net.AddEdge(2, 4, 14)
	net.AddEdge(4, 3, 7)
	net.AddEdge(3, 5, 20)
	net.AddEdge(4, 5, 4)
	return net
}

func TestEdmondsKarpKnownValue(t *testing.T) {
	net := clrsNetwork()
	if got := EdmondsKarp(net, 0, 5); got != 23 {
		t.Fatalf("max flow %d, want 23", got)
	}
	if err := net.CheckFlow(0, 5); err != nil {
		t.Fatal(err)
	}
	if net.OutFlow(0) != 23 || net.OutFlow(5) != -23 {
		t.Fatalf("endpoint flows %d/%d", net.OutFlow(0), net.OutFlow(5))
	}
}

func TestPushRelabelKnownValue(t *testing.T) {
	net := clrsNetwork()
	if got := PushRelabel(net, 0, 5); got != 23 {
		t.Fatalf("max flow %d, want 23", got)
	}
	if err := net.CheckFlow(0, 5); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectedSink(t *testing.T) {
	net := NewNetwork(4)
	net.AddEdge(0, 1, 5) // sink 3 unreachable
	if got := EdmondsKarp(net.Clone(), 0, 3); got != 0 {
		t.Fatalf("EK on disconnected: %d", got)
	}
	if got := PushRelabel(net.Clone(), 0, 3); got != 0 {
		t.Fatalf("PR on disconnected: %d", got)
	}
}

func TestSingleEdge(t *testing.T) {
	net := NewNetwork(2)
	net.AddEdge(0, 1, 7)
	if got := PushRelabel(net, 0, 1); got != 7 {
		t.Fatalf("flow %d", got)
	}
}

func TestParallelEdgesAccumulate(t *testing.T) {
	net := NewNetwork(2)
	net.AddEdge(0, 1, 3)
	net.AddEdge(0, 1, 4)
	if got := PushRelabel(net, 0, 1); got != 7 {
		t.Fatalf("flow %d, want 7", got)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	net := NewNetwork(3)
	for i, fn := range []func(){
		func() { net.AddEdge(0, 0, 1) },
		func() { net.AddEdge(-1, 1, 1) },
		func() { net.AddEdge(0, 3, 1) },
		func() { net.AddEdge(0, 1, -1) },
		func() { NewNetwork(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPushRelabelMatchesEdmondsKarpRandom(t *testing.T) {
	r := rng.New(1)
	globals := 0
	for trial := 0; trial < 25; trial++ {
		net := RandomNetwork(r, 20+trial*3, 60+trial*10, 50)
		want := EdmondsKarp(net.Clone(), 0, net.N-1)
		pr := net.Clone()
		got := PushRelabel(pr, 0, net.N-1)
		if got != want {
			t.Fatalf("trial %d: PR %d vs EK %d", trial, got, want)
		}
		if err := pr.CheckFlow(0, net.N-1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The same drain a step at a time, heights checked.
		st := newPRState(net.Clone(), 0, net.N-1)
		_, g := fifoChecked(t, st, true)
		globals += g
		if got := st.excess[net.N-1]; got != want {
			t.Fatalf("trial %d: stepped PR %d vs EK %d", trial, got, want)
		}
	}
	if globals == 0 {
		t.Fatal("no global relabel ran, so no height check followed one")
	}
}

func TestSpeculativeMatchesOracle(t *testing.T) {
	r := rng.New(2)
	globals := 0
	for trial := 0; trial < 10; trial++ {
		net := RandomNetwork(r, 40, 160, 30)
		want := EdmondsKarp(net.Clone(), 0, net.N-1)

		spec := net.Clone()
		s := NewSpeculativePR(spec, 0, spec.N-1, func(n int) int { return r.Intn(n) })
		globals += drainChecked(t, s, 8)
		if got := s.FlowValue(); got != want {
			t.Fatalf("trial %d: speculative %d vs oracle %d", trial, got, want)
		}
		if err := spec.CheckFlow(0, spec.N-1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if globals == 0 {
		t.Fatal("no global relabel ran, so no height check followed one")
	}
}

func TestSpeculativeAdaptive(t *testing.T) {
	r := rng.New(3)
	net := RandomNetwork(r, 120, 600, 40)
	want := EdmondsKarp(net.Clone(), 0, net.N-1)
	spec := net.Clone()
	s := NewSpeculativePR(spec, 0, spec.N-1, func(n int) int { return r.Intn(n) })
	ctrl := control.NewHybrid(control.DefaultHybridConfig(0.25))
	res := speculation.RunAdaptive(s.Executor(), ctrl, 1000000)
	if s.Executor().Pending() != 0 {
		t.Fatal("did not drain")
	}
	if got := s.FlowValue(); got != want {
		t.Fatalf("adaptive flow %d vs oracle %d", got, want)
	}
	if res.Rounds == 0 {
		t.Fatal("no rounds")
	}
	// Discharges on a dense residual graph must conflict sometimes.
	if s.Executor().TotalAborted() == 0 {
		t.Error("no conflicts — neighborhood locking suspicious")
	}
}

func TestRandomNetworkReachesSink(t *testing.T) {
	r := rng.New(4)
	net := RandomNetwork(r, 30, 0, 10) // backbone only
	if got := EdmondsKarp(net, 0, net.N-1); got <= 0 {
		t.Fatalf("backbone carries no flow: %d", got)
	}
}
