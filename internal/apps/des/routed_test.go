package des

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/speculation"
)

func feedForwardNet(seed uint64) *Network {
	// Fork-join-ish: station 0 splits to 1 or 2, both feed 3, which
	// exits.
	return NewRouted(seed,
		[]float64{0.2, 0.3, 0.25, 0.15},
		[][]Route{
			{{To: 1, Prob: 0.5}, {To: 2, Prob: 0.5}},
			{{To: 3, Prob: 1}},
			{{To: 3, Prob: 1}},
			{}, // exit
		})
}

func loopNet(seed uint64) *Network {
	// Station 1 feeds back to 0 with probability 0.3 (rework loop).
	return NewRouted(seed,
		[]float64{0.2, 0.2},
		[][]Route{
			{{To: 1, Prob: 1}},
			{{To: 0, Prob: 0.3}}, // 0.7 exit
		})
}

func TestRoutedValidation(t *testing.T) {
	cases := []func(){
		func() { NewRouted(1, nil, nil) },
		func() { NewRouted(1, []float64{1}, nil) }, // table size mismatch
		func() {
			NewRouted(1, []float64{1}, [][]Route{{{To: 5, Prob: 1}}})
		},
		func() {
			NewRouted(1, []float64{1}, [][]Route{{{To: 0, Prob: 1.5}}})
		},
		func() {
			NewRouted(1, []float64{1, 1}, [][]Route{{{To: 1, Prob: 0.7}, {To: 1, Prob: 0.7}}, {}})
		},
	}
	for i, fn := range cases {
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

func TestNextStationDeterministic(t *testing.T) {
	net := feedForwardNet(7)
	for job := 0; job < 20; job++ {
		a := net.NextStation(0, job, 1.25)
		b := net.NextStation(0, job, 1.25)
		if a != b {
			t.Fatal("routing draw not deterministic")
		}
		if a != 1 && a != 2 {
			t.Fatalf("station 0 routed to %d", a)
		}
	}
	// Different times re-draw (statistically: some job must differ
	// across two distinct times).
	differ := false
	for job := 0; job < 50 && !differ; job++ {
		if net.NextStation(0, job, 1.0) != net.NextStation(0, job, 2.0) {
			differ = true
		}
	}
	if !differ {
		t.Fatal("routing ignores time — revisits would loop forever")
	}
	// Tandem fallback.
	tandem := NewTandem(1, 0.5, 0.5)
	if tandem.NextStation(0, 3, 1) != 1 || tandem.NextStation(1, 3, 1) != -1 {
		t.Fatal("tandem routing broken")
	}
}

func TestRoutedSequentialConservation(t *testing.T) {
	net := feedForwardNet(11)
	const jobs = 300
	s := RunSequential(net, jobs, 0.3)
	if err := s.CheckComplete(); err != nil {
		t.Fatal(err)
	}
	_, served := s.MakespanAndThroughput()
	if served != jobs {
		t.Fatalf("served %d, want %d", served, jobs)
	}
	// Split conservation: stations 1 and 2 together served every job,
	// station 3 served all of them.
	if s.Stations[1].Served+s.Stations[2].Served != jobs {
		t.Fatalf("split lost jobs: %d + %d", s.Stations[1].Served, s.Stations[2].Served)
	}
	if s.Stations[3].Served != jobs {
		t.Fatalf("join served %d", s.Stations[3].Served)
	}
	// The split should be roughly even.
	if s.Stations[1].Served < jobs/4 || s.Stations[2].Served < jobs/4 {
		t.Fatalf("split badly skewed: %d/%d", s.Stations[1].Served, s.Stations[2].Served)
	}
}

func TestLoopNetworkTerminatesAndReworks(t *testing.T) {
	net := loopNet(13)
	const jobs = 200
	s := RunSequential(net, jobs, 0.3)
	if err := s.CheckComplete(); err != nil {
		t.Fatal(err)
	}
	// With 30% rework, station 0 serves ≈ jobs/0.7 ≈ 286 times.
	if s.Stations[0].Served <= jobs {
		t.Fatalf("no rework observed: station 0 served %d", s.Stations[0].Served)
	}
	if s.Stations[0].Served > 2*jobs {
		t.Fatalf("rework count %d implausible", s.Stations[0].Served)
	}
}

func TestRoutedSpeculativeMatchesOracle(t *testing.T) {
	for _, mk := range []func(uint64) *Network{feedForwardNet, loopNet} {
		net := mk(17)
		const jobs = 150
		oracle := RunSequential(net, jobs, 0.25)
		sim := NewSpeculativeSim(net, jobs, 0.25)
		ctrl := control.NewHybrid(control.DefaultHybridConfig(0.25))
		speculation.RunAdaptive(sim.Executor(), ctrl, 1<<30)
		if err := sim.State().CheckComplete(); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < jobs; j++ {
			if sim.State().Departed[j] != oracle.Departed[j] {
				t.Fatalf("job %d: %v vs oracle %v",
					j, sim.State().Departed[j], oracle.Departed[j])
			}
		}
		if sim.State().Processed != oracle.Processed {
			t.Fatalf("processed %d vs %d", sim.State().Processed, oracle.Processed)
		}
	}
}

func TestRoutedMakespanPositive(t *testing.T) {
	net := feedForwardNet(19)
	s := RunSequential(net, 50, 0.5)
	mk, _ := s.MakespanAndThroughput()
	if mk <= 0 || math.IsNaN(mk) {
		t.Fatalf("makespan %v", mk)
	}
}
