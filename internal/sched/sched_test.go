package sched

import (
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/control"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/speculation"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestFigure1Semantics walks the three panels of Fig. 1 on a concrete
// graph: random actives are launched, conflicts are detected, and the
// committed set is a maximal independent set of the induced subgraph.
func TestFigure1Semantics(t *testing.T) {
	r := rng.New(1)
	g := graph.RandomGNM(r, 12, 18)
	snapshot := g.Clone()
	s := &Scheduler{G: g, R: r}
	res := s.Step(6)
	if res.Launched != 6 {
		t.Fatalf("launched %d, want 6", res.Launched)
	}
	if len(res.Committed)+len(res.Aborted) != 6 {
		t.Fatal("committed + aborted must partition the active nodes")
	}
	// Committed set must be independent in the pre-round graph and
	// maximal within the active subset.
	if !graph.IsIndependentSet(snapshot, res.Committed) {
		t.Fatal("committed set not independent")
	}
	for _, a := range res.Aborted {
		conflicts := false
		for _, c := range res.Committed {
			if snapshot.HasEdge(a, c) {
				conflicts = true
				break
			}
		}
		if !conflicts {
			t.Fatalf("aborted node %d has no committed neighbor — set not maximal", a)
		}
	}
	// Committed nodes left the graph; aborted ones remain.
	for _, c := range res.Committed {
		if g.Has(c) {
			t.Fatalf("committed node %d still live", c)
		}
	}
	for _, a := range res.Aborted {
		if !g.Has(a) {
			t.Fatalf("aborted node %d was removed", a)
		}
	}
}

func TestStepDrainsGraph(t *testing.T) {
	r := rng.New(2)
	g := graph.RandomGNM(r, 100, 300)
	s := &Scheduler{G: g, R: r}
	for steps := 0; !s.Done(); steps++ {
		if steps > 10000 {
			t.Fatal("scheduler did not drain")
		}
		s.Step(8)
	}
	if s.TotalCommitted != 100 {
		t.Fatalf("committed %d nodes total, want 100", s.TotalCommitted)
	}
	if s.TotalLaunched != s.TotalCommitted+s.TotalAborted {
		t.Fatal("counter identity broken")
	}
}

func TestStepMClampedToLive(t *testing.T) {
	r := rng.New(3)
	g := graph.Empty(5)
	s := &Scheduler{G: g, R: r}
	res := s.Step(50)
	if res.Launched != 5 || len(res.Committed) != 5 {
		t.Fatalf("launched=%d committed=%d", res.Launched, len(res.Committed))
	}
	if !s.Done() {
		t.Fatal("empty graph should be drained")
	}
	// Stepping an empty graph is a harmless no-op round.
	res = s.Step(4)
	if res.Launched != 0 || len(res.Aborted) != 0 {
		t.Fatal("step on empty graph should launch nothing")
	}
}

// Prop. 1 oracle: exact r̄(m) is non-decreasing in m on small graphs of
// several shapes.
func TestProp1ExactMonotonicity(t *testing.T) {
	r := rng.New(5)
	cases := []*graph.Graph{
		graph.Complete(6),
		graph.Path(7),
		graph.Cycle(7),
		graph.Star(7),
		graph.RandomGNM(r, 7, 10),
		graph.CliqueUnion(8, 3),
		graph.Empty(6),
	}
	for gi, g := range cases {
		prev := -1.0
		for m := 1; m <= g.NumNodes(); m++ {
			cur := ExactConflictRatio(g, m)
			if cur < prev-1e-12 {
				t.Errorf("graph %d: r̄(%d)=%v < r̄(%d)=%v", gi, m, cur, m-1, prev)
			}
			prev = cur
		}
	}
}

// Prop. 2 oracle: Δr̄(1) = d/(2(n−1)) exactly, on arbitrary small graphs.
func TestProp2InitialSlopeExact(t *testing.T) {
	r := rng.New(6)
	cases := []*graph.Graph{
		graph.Complete(5),
		graph.Path(6),
		graph.Star(6),
		graph.RandomGNM(r, 7, 9),
		graph.RandomGNM(r, 6, 2),
	}
	for gi, g := range cases {
		slope := ExactConflictRatio(g, 2) - ExactConflictRatio(g, 1)
		want := analytic.InitialSlope(g.NumNodes(), g.AvgDegree())
		if !almostEq(slope, want, 1e-12) {
			t.Errorf("graph %d: slope %v want %v", gi, slope, want)
		}
	}
}

func TestExactConflictRatioCompleteGraph(t *testing.T) {
	// On K_n exactly one active node commits: r̄(m) = (m−1)/m.
	g := graph.Complete(6)
	for m := 1; m <= 6; m++ {
		want := float64(m-1) / float64(m)
		if got := ExactConflictRatio(g, m); !almostEq(got, want, 1e-12) {
			t.Errorf("m=%d: %v want %v", m, got, want)
		}
	}
}

func TestExactConflictRatioEmptyGraph(t *testing.T) {
	g := graph.Empty(5)
	for m := 1; m <= 5; m++ {
		if got := ExactConflictRatio(g, m); got != 0 {
			t.Errorf("m=%d: %v want 0", m, got)
		}
	}
}

func TestMonteCarloMatchesExact(t *testing.T) {
	r := rng.New(7)
	g := graph.RandomGNM(r, 8, 12)
	est := NewEstimator(g, 1)
	for _, m := range []int{2, 4, 6, 8} {
		exact := ExactConflictRatio(g, m)
		mc := est.ConflictRatio(r, m, 20000)
		if !almostEq(exact, mc, 0.02) {
			t.Errorf("m=%d: exact %v MC %v", m, exact, mc)
		}
	}
}

// Thm. 3: the measured conflict ratio on K^n_d matches the closed form,
// and every other same-degree graph stays below it.
func TestWorstCaseExactMatchesSimulation(t *testing.T) {
	r := rng.New(8)
	const n, d = 120, 5
	knd := NewEstimator(graph.CliqueUnion(n, d), 1)
	rival := NewEstimator(graph.RandomGNM(r, n, n*d/2), 1)
	for _, m := range []int{2, 10, 30, 60, 120} {
		bound := analytic.WorstCaseConflictRatio(n, d, m)
		worst := knd.ConflictRatio(r, m, 4000)
		other := rival.ConflictRatio(r, m, 4000)
		if !almostEq(worst, bound, 0.03) {
			t.Errorf("m=%d: K^n_d measured %v, closed form %v", m, worst, bound)
		}
		if other > bound+0.03 {
			t.Errorf("m=%d: random graph ratio %v exceeds worst-case %v", m, other, bound)
		}
	}
}

func TestConflictCurve(t *testing.T) {
	r := rng.New(10)
	g := graph.RandomGNM(r, 50, 100)
	est := NewEstimator(g, 1)
	prev := 0.0
	for _, m := range []int{1, 5, 10, 25, 50} {
		// Monotone (Prop. 1) modulo Monte Carlo noise.
		cur := est.ConflictRatio(r, m, 500)
		if cur < prev-0.05 {
			t.Errorf("curve not (approximately) monotone at m=%d: %v after %v", m, cur, prev)
		}
		prev = cur
	}
}

func TestOverallConflictRatio(t *testing.T) {
	r := rng.New(11)
	g := graph.Complete(10)
	s := &Scheduler{G: g, R: r}
	for !s.Done() {
		s.Step(5)
	}
	if got := float64(s.TotalAborted) / float64(s.TotalLaunched); got <= 0 || got >= 1 {
		t.Errorf("overall ratio = %v, want in (0,1) for a clique drained at m=5", got)
	}
}

// TestStaticRound checks the model's static round as a Rounder: a round
// launches min(m, n) nodes and splits them into commits and aborts (on a
// clique exactly one commits), and the graph never drains, so a drive of
// it stops at its sample cap with the graph untouched.
func TestStaticRound(t *testing.T) {
	g := graph.Complete(10)
	s := NewStatic(g, rng.New(1))
	for _, m := range []int{0, 1, 5, 10, 50} {
		st := s.Round(m)
		want := min(m, 10)
		if st.Launched != want || st.Committed+st.Aborted != want || st.Committed != min(want, 1) {
			t.Errorf("m=%d: %+v, want %d launched and min(launched, 1) committed", m, st, want)
		}
	}
	res := speculation.RunAdaptive(s, control.Fixed{Procs: 4}, 7)
	if res.Rounds != 7 || s.Pending() != 10 || g.NumNodes() != 10 {
		t.Fatalf("capped drive: %d rounds, %d pending, %d nodes", res.Rounds, s.Pending(), g.NumNodes())
	}
}
