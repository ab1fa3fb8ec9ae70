package sp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/rng"
	"repro/internal/speculation"
)

func TestRandom3SATShape(t *testing.T) {
	r := rng.New(1)
	f := NewRandom3SAT(r, 50, 100)
	if f.NumVars != 50 || len(f.Clauses) != 100 {
		t.Fatalf("shape %d/%d", f.NumVars, len(f.Clauses))
	}
	for ci, c := range f.Clauses {
		if len(c.Lits) != 3 {
			t.Fatalf("clause %d has %d literals", ci, len(c.Lits))
		}
		seen := map[int]bool{}
		for _, l := range c.Lits {
			if l.Var < 0 || l.Var >= 50 || seen[l.Var] {
				t.Fatalf("clause %d has bad/duplicate variable", ci)
			}
			seen[l.Var] = true
		}
	}
}

func TestSatisfied(t *testing.T) {
	// (x0 ∨ ¬x1) ∧ (x1)
	f := &Formula{NumVars: 2, Clauses: []Clause{
		{Lits: []Lit{{Var: 0}, {Var: 1, Neg: true}}},
		{Lits: []Lit{{Var: 1}}},
	}}
	good := Assignment{1, 1}
	if err := f.Satisfied(good); err != nil {
		t.Fatalf("satisfying assignment rejected: %v", err)
	}
	bad := Assignment{0, 1}
	if err := f.Satisfied(bad); err == nil {
		t.Fatal("unsatisfying assignment accepted")
	}
	partial := Assignment{-1, 1}
	if err := f.Satisfied(partial); err == nil {
		t.Fatal("partial assignment accepted")
	}
}

func TestSimplify(t *testing.T) {
	// (x0 ∨ x1) ∧ (¬x0 ∨ x2): set x0=1 → first clause satisfied,
	// second becomes (x2).
	f := &Formula{NumVars: 3, Clauses: []Clause{
		{Lits: []Lit{{Var: 0}, {Var: 1}}},
		{Lits: []Lit{{Var: 0, Neg: true}, {Var: 2}}},
	}}
	a := Assignment{1, -1, -1}
	g, remap, err := f.Simplify(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Clauses) != 1 || len(g.Clauses[0].Lits) != 1 {
		t.Fatalf("simplified formula %+v", g)
	}
	if remap[2] != g.Clauses[0].Lits[0].Var {
		t.Fatal("remap inconsistent")
	}
	if remap[0] != -1 {
		t.Fatal("assigned variable still mapped")
	}
}

func TestSimplifyContradiction(t *testing.T) {
	f := &Formula{NumVars: 1, Clauses: []Clause{
		{Lits: []Lit{{Var: 0}}},
	}}
	a := Assignment{0}
	if _, _, err := f.Simplify(a); err == nil {
		t.Fatal("empty clause not detected")
	}
}

func TestUnitPropagate(t *testing.T) {
	// (x0) ∧ (¬x0 ∨ x1) ∧ (¬x1 ∨ x2): chain forces all true.
	f := &Formula{NumVars: 3, Clauses: []Clause{
		{Lits: []Lit{{Var: 0}}},
		{Lits: []Lit{{Var: 0, Neg: true}, {Var: 1}}},
		{Lits: []Lit{{Var: 1, Neg: true}, {Var: 2}}},
	}}
	a := NewAssignment(3)
	n, err := f.UnitPropagate(a)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || a[0] != 1 || a[1] != 1 || a[2] != 1 {
		t.Fatalf("propagated %d, assignment %v", n, a)
	}
}

func TestUnitPropagateContradiction(t *testing.T) {
	f := &Formula{NumVars: 1, Clauses: []Clause{
		{Lits: []Lit{{Var: 0}}},
		{Lits: []Lit{{Var: 0, Neg: true}}},
	}}
	a := NewAssignment(1)
	if _, err := f.UnitPropagate(a); err == nil {
		t.Fatal("contradiction not detected")
	}
}

// On a single isolated clause, SP has a known fixed point: with no
// other clauses, Π^u_{j→a} = 0 for every j, so η = 0 for all messages.
func TestSPFixedPointSingleClause(t *testing.T) {
	r := rng.New(2)
	f := &Formula{NumVars: 3, Clauses: []Clause{
		{Lits: []Lit{{Var: 0}, {Var: 1}, {Var: 2}}},
	}}
	st := NewState(f, r)
	res, ok := st.Converge(1e-9, 50)
	if !ok {
		t.Fatalf("did not converge, residual %v", res)
	}
	for _, e := range st.Eta[0] {
		if e != 0 {
			t.Fatalf("eta = %v, want 0", st.Eta[0])
		}
	}
}

// Two contradictory unit-like clauses on one variable drive warnings up.
func TestSPWarningsOnConflict(t *testing.T) {
	r := rng.New(3)
	// (x0 ∨ x1) ∧ (¬x0 ∨ x1) ∧ (¬x1 ∨ x2): variable 1 is pulled.
	f := &Formula{NumVars: 3, Clauses: []Clause{
		{Lits: []Lit{{Var: 0}, {Var: 1}}},
		{Lits: []Lit{{Var: 0, Neg: true}, {Var: 1}}},
		{Lits: []Lit{{Var: 1, Neg: true}, {Var: 2}}},
	}}
	st := NewState(f, r)
	if _, ok := st.Converge(1e-9, 200); !ok {
		t.Fatal("did not converge")
	}
	b := st.Biases()
	// Variable 2 should lean true (warned by clause 2 once var1 true).
	if b[2].WPlus <= b[2].WMinus {
		t.Logf("biases: %+v", b)
	}
}

func TestSPConvergesOnRandomEasy(t *testing.T) {
	r := rng.New(4)
	f := NewRandom3SAT(r, 120, 240) // alpha = 2: easy phase
	st := NewState(f, r)
	res, ok := st.Converge(1e-4, 500)
	if !ok {
		t.Fatalf("SP did not converge on easy instance, residual %v", res)
	}
}

func TestWalkSATOnEasy(t *testing.T) {
	r := rng.New(5)
	f := NewRandom3SAT(r, 60, 120)
	a, ok := WalkSAT(f, r, 200000, 0.5)
	if !ok {
		t.Fatal("WalkSAT failed on easy instance")
	}
	if err := f.Satisfied(a); err != nil {
		t.Fatal(err)
	}
}

func TestWalkSATTrivial(t *testing.T) {
	if _, ok := WalkSAT(&Formula{}, rng.New(6), 10, 0.5); !ok {
		t.Fatal("empty formula should be satisfiable")
	}
}

func TestSolveEndToEnd(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 3; trial++ {
		f := NewRandom3SAT(r, 150, 450) // alpha = 3: SAT whp, non-trivial
		a, err := Solve(f, r, SolveOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := f.Satisfied(a); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSpeculativeSPConverges(t *testing.T) {
	r := rng.New(8)
	f := NewRandom3SAT(r, 120, 240)
	st := NewState(f, r.Split())
	s := NewSpeculativeSP(st, 1e-4, func(n int) int { return r.Intn(n) })
	rounds := 0
	for s.Executor().Pending() > 0 {
		s.Executor().Round(16)
		rounds++
		if rounds > 200000 {
			t.Fatal("speculative SP did not drain")
		}
	}
	// The drained state must be an eps-fixed-point: a full sweep moves
	// nothing beyond (a small multiple of) eps.
	if res := st.Sweep(); res > 5e-3 {
		t.Fatalf("drained but residual %v", res)
	}
	if s.Updates == 0 {
		t.Fatal("no updates committed")
	}
}

func TestSpeculativeSPAdaptive(t *testing.T) {
	r := rng.New(9)
	f := NewRandom3SAT(r, 200, 500)
	st := NewState(f, r.Split())
	s := NewSpeculativeSP(st, 1e-4, func(n int) int { return r.Intn(n) })
	ctrl := control.NewHybrid(control.DefaultHybridConfig(0.25))
	res := speculation.RunAdaptive(s.Executor(), ctrl, 500000)
	if s.Executor().Pending() != 0 {
		t.Fatal("did not drain")
	}
	if res.Rounds == 0 {
		t.Fatal("no rounds")
	}
	if s.Executor().TotalAborted() == 0 {
		t.Error("clause updates never conflicted — locking suspicious")
	}
}

// Sequential and speculative SP must land on comparable fixed points
// (same formula, same eps): compare per-variable biases coarsely.
func TestSpeculativeMatchesSequentialBiases(t *testing.T) {
	r := rng.New(10)
	f := NewRandom3SAT(r, 80, 160)

	seqSt := NewState(f, rng.New(42))
	if _, ok := seqSt.Converge(1e-6, 1000); !ok {
		t.Skip("sequential SP did not converge; skip comparison")
	}

	parSt := NewState(f, rng.New(42))
	s := NewSpeculativeSP(parSt, 1e-6, func(n int) int { return r.Intn(n) })
	for s.Executor().Pending() > 0 {
		s.Executor().Round(8)
	}

	bs, bp := seqSt.Biases(), parSt.Biases()
	maxDiff := 0.0
	for v := range bs {
		d := math.Abs(bs[v].WPlus-bp[v].WPlus) + math.Abs(bs[v].WMinus-bp[v].WMinus)
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.05 {
		t.Fatalf("bias fixed points diverge: max diff %v", maxDiff)
	}
}

func TestSolveUnsatisfiableReportsError(t *testing.T) {
	r := rng.New(11)
	// (x0) ∧ (¬x0): any pipeline stage must surface the contradiction.
	f := &Formula{NumVars: 3, Clauses: []Clause{
		{Lits: []Lit{{Var: 0}}},
		{Lits: []Lit{{Var: 0, Neg: true}}},
		{Lits: []Lit{{Var: 1}, {Var: 2}}},
	}}
	if _, err := Solve(f, r, SolveOptions{WalkFlips: 2000}); err == nil {
		t.Fatal("UNSAT instance solved?!")
	}
}

func TestSolveForcedChainDecimates(t *testing.T) {
	r := rng.New(12)
	// Implication chain: strong polarization drives decimation rather
	// than WalkSAT.
	var clauses []Clause
	clauses = append(clauses, Clause{Lits: []Lit{{Var: 0}}})
	const n = 40
	for i := 0; i+1 < n; i++ {
		clauses = append(clauses, Clause{Lits: []Lit{{Var: i, Neg: true}, {Var: i + 1}}})
	}
	f := &Formula{NumVars: n, Clauses: clauses}
	a, err := Solve(f, r, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if a[i] != 1 {
			t.Fatalf("variable %d = %d, chain forces all true", i, a[i])
		}
	}
}

func TestSolveHarderAlpha(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	r := rng.New(13)
	f := NewRandom3SAT(r, 250, 950) // alpha = 3.8: decimation territory
	a, err := Solve(f, r, SolveOptions{})
	if err != nil {
		t.Fatalf("solve failed: %v", err)
	}
	if err := f.Satisfied(a); err != nil {
		t.Fatal(err)
	}
}

func TestSolveEmptyFormula(t *testing.T) {
	r := rng.New(14)
	f := &Formula{NumVars: 5}
	a, err := Solve(f, r, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 5 {
		t.Fatalf("assignment length %d", len(a))
	}
}

// updateClauseReference is UpdateClause as a per-slot recomputation:
// every slot i recomputes the products of every other literal j. It is
// the k² form UpdateClause's once-per-literal products must equal bit
// for bit.
func updateClauseReference(s *State, a int) float64 {
	c := s.F.Clauses[a]
	maxDelta := 0.0
	newEta := make([]float64, len(c.Lits))
	for i := range c.Lits {
		prod := 1.0
		for j, lj := range c.Lits {
			if j == i {
				continue
			}
			pu, ps, p0 := s.products(lj.Var, a, lj.Neg)
			den := pu + ps + p0
			if den <= 0 {
				prod = 0
				break
			}
			prod *= pu / den
		}
		newEta[i] = prod
	}
	for i, e := range newEta {
		if d := math.Abs(e - s.Eta[a][i]); d > maxDelta {
			maxDelta = d
		}
		s.Eta[a][i] = e
	}
	return maxDelta
}

// twinStates returns two states over f with equal, independent messages.
func twinStates(f *Formula, r *rng.Rand) (*State, *State) {
	a := NewState(f, r)
	b := &State{F: f, Occ: a.Occ, Eta: make([][]float64, len(a.Eta))}
	for ci := range a.Eta {
		b.Eta[ci] = append([]float64(nil), a.Eta[ci]...)
	}
	return a, b
}

// UpdateClause must produce exactly the reference's floats, residual
// included: on random formulas whose clauses run from 1 to 12 literals
// (past the 8 the stack buffers hold), and on a clause where one
// literal's denominator is forced to 0.
func TestUpdateClauseMatchesReference(t *testing.T) {
	sameBits := func(t *testing.T, got, want *State, what string) {
		t.Helper()
		for ci := range want.Eta {
			for i := range want.Eta[ci] {
				if math.Float64bits(got.Eta[ci][i]) != math.Float64bits(want.Eta[ci][i]) {
					t.Fatalf("%s: η[%d][%d] = %v, reference %v", what, ci, i, got.Eta[ci][i], want.Eta[ci][i])
				}
			}
		}
	}
	sweep := func(t *testing.T, got, want *State, what string) {
		t.Helper()
		for a := range want.F.Clauses {
			dg, dw := got.UpdateClause(a), updateClauseReference(want, a)
			if math.Float64bits(dg) != math.Float64bits(dw) {
				t.Fatalf("%s: clause %d residual %v, reference %v", what, a, dg, dw)
			}
		}
		sameBits(t, got, want, what)
	}

	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		const n = 40
		f := &Formula{NumVars: n}
		for c := 0; c < 90; c++ {
			k := 1 + r.Intn(12)
			cl := Clause{Lits: make([]Lit, k)}
			for i, v := range r.PermPrefix(n, k) {
				cl.Lits[i] = Lit{Var: v, Neg: r.Bool()}
			}
			f.Clauses = append(f.Clauses, cl)
		}
		got, want := twinStates(f, r)
		for s := 0; s < 3; s++ {
			sweep(t, got, want, fmt.Sprintf("seed %d sweep %d", seed, s))
		}
	}

	// Variable 0 occurs in clause 0, with the same sign in clause 1 and
	// the opposite sign in clause 2. With η = 1 on both of those
	// occurrences, Π^u = Π^s = Π^0 = 0 for variable 0 as seen from
	// clause 0: every other slot of clause 0 gets η = 0.
	wide := Clause{}
	for v := 0; v < 10; v++ {
		wide.Lits = append(wide.Lits, Lit{Var: v, Neg: v%2 == 1})
	}
	f := &Formula{NumVars: 10, Clauses: []Clause{
		wide,
		{Lits: []Lit{{Var: 0}, {Var: 1}, {Var: 2}}},
		{Lits: []Lit{{Var: 3}, {Var: 0, Neg: true}, {Var: 4}}},
	}}
	got, want := twinStates(f, rng.New(9))
	for _, s := range []*State{got, want} {
		s.Eta[1][0], s.Eta[2][1] = 1, 1
	}
	sweep(t, got, want, "den = 0")
	for i, e := range got.Eta[0][1:] {
		if e != 0 {
			t.Fatalf("η[0][%d] = %v with a zero denominator in slot 0", i+1, e)
		}
	}
}
