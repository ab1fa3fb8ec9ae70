package sp

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// occurrence locates one appearance of a variable in a clause.
type occurrence struct {
	Clause int  // clause index
	Slot   int  // literal position within the clause
	Neg    bool // literal sign there
}

// State holds the survey propagation messages η_{a→i} for a formula,
// indexed [clause][slot], together with the occurrence lists needed to
// evaluate the SP update equations.
type State struct {
	F   *Formula
	Eta [][]float64
	Occ [][]occurrence // per variable: where it occurs
}

// NewState allocates SP messages initialized uniformly at random in
// (0, 1) — the standard initialization.
func NewState(f *Formula, r *rng.Rand) *State {
	s := &State{F: f}
	s.Eta = make([][]float64, len(f.Clauses))
	for ci, c := range f.Clauses {
		s.Eta[ci] = make([]float64, len(c.Lits))
		for i := range c.Lits {
			s.Eta[ci][i] = r.Float64()
		}
	}
	s.Occ = make([][]occurrence, f.NumVars)
	for ci, c := range f.Clauses {
		for slot, l := range c.Lits {
			s.Occ[l.Var] = append(s.Occ[l.Var], occurrence{Clause: ci, Slot: slot, Neg: l.Neg})
		}
	}
	return s
}

// products returns (Π^u, Π^s, Π^0) for variable v as seen from clause
// exclCi, where the "same" direction is the sign the literal has in
// clause exclCi (neg there).
func (s *State) products(v int, exclCi int, negThere bool) (pu, ps, p0 float64) {
	prodSame, prodOpp, prodAll := 1.0, 1.0, 1.0
	for _, o := range s.Occ[v] {
		if o.Clause == exclCi {
			continue
		}
		e := s.Eta[o.Clause][o.Slot]
		prodAll *= 1 - e
		if o.Neg == negThere {
			prodSame *= 1 - e
		} else {
			prodOpp *= 1 - e
		}
	}
	// Π^u: v is forced in the direction that *violates* clause exclCi —
	// warnings come from clauses where v appears with the opposite sign.
	pu = (1 - prodOpp) * prodSame
	// Π^s: v is forced to satisfy exclCi.
	ps = (1 - prodSame) * prodOpp
	p0 = prodAll
	return pu, ps, p0
}

// UpdateClause recomputes the messages η_{a→i} for every literal slot i
// of clause a and returns the largest absolute change (the residual).
// Slot i's message is the product over the other slots j of
// Π^u_j / (Π^u_j + Π^s_j + Π^0_j), or 0 when a denominator vanishes.
// Each literal's ratio is computed once and the products are formed in
// ascending j, so the floats are those of a per-slot recomputation.
func (s *State) UpdateClause(a int) float64 {
	c := s.F.Clauses[a]
	k := len(c.Lits)
	var ratioBuf, etaBuf [8]float64
	var zeroBuf [8]bool
	ratio, newEta, zero := ratioBuf[:0], etaBuf[:0], zeroBuf[:0]
	if k > len(ratioBuf) {
		ratio, newEta, zero = make([]float64, 0, k), make([]float64, 0, k), make([]bool, 0, k)
	}
	for _, l := range c.Lits {
		pu, ps, p0 := s.products(l.Var, a, l.Neg)
		den := pu + ps + p0
		zero = append(zero, den <= 0)
		ratio = append(ratio, pu/den)
	}
	for i := range c.Lits {
		prod := 1.0
		for j := range c.Lits {
			if j == i {
				continue
			}
			if zero[j] {
				prod = 0
				break
			}
			prod *= ratio[j]
		}
		newEta = append(newEta, prod)
	}
	maxDelta := 0.0
	for i, e := range newEta {
		if d := math.Abs(e - s.Eta[a][i]); d > maxDelta {
			maxDelta = d
		}
		s.Eta[a][i] = e
	}
	return maxDelta
}

// Sweep updates every clause once and returns the largest residual.
func (s *State) Sweep() float64 {
	maxDelta := 0.0
	for a := range s.F.Clauses {
		if d := s.UpdateClause(a); d > maxDelta {
			maxDelta = d
		}
	}
	return maxDelta
}

// Converge runs sweeps until the residual drops below eps or maxSweeps
// elapse; it reports the final residual and whether it converged.
func (s *State) Converge(eps float64, maxSweeps int) (float64, bool) {
	res := math.Inf(1)
	for i := 0; i < maxSweeps; i++ {
		res = s.Sweep()
		if res < eps {
			return res, true
		}
	}
	return res, false
}

// Bias is a variable's SP-derived polarization.
type Bias struct {
	Var           int
	WPlus, WMinus float64
}

// Polarization returns |W+ − W−|, the decimation ranking key.
func (b Bias) Polarization() float64 { return math.Abs(b.WPlus - b.WMinus) }

// Biases computes the per-variable surveys (W^+, W^-) from the current
// messages.
func (s *State) Biases() []Bias {
	out := make([]Bias, s.F.NumVars)
	for v := 0; v < s.F.NumVars; v++ {
		prodPlus, prodMinus, prodAll := 1.0, 1.0, 1.0
		for _, o := range s.Occ[v] {
			e := s.Eta[o.Clause][o.Slot]
			prodAll *= 1 - e
			if o.Neg {
				// Clause satisfied by v = false.
				prodMinus *= 1 - e
			} else {
				prodPlus *= 1 - e
			}
		}
		// Π^+ : forced true — warnings only from clauses wanting true.
		pPlus := (1 - prodPlus) * prodMinus
		pMinus := (1 - prodMinus) * prodPlus
		den := pPlus + pMinus + prodAll
		b := Bias{Var: v}
		if den > 0 {
			b.WPlus = pPlus / den
			b.WMinus = pMinus / den
		}
		out[v] = b
	}
	return out
}

// MaxPolarization returns the largest polarization across variables
// (≈0 means the paramagnetic phase: SP has no guidance left).
func MaxPolarization(biases []Bias) float64 {
	m := 0.0
	for _, b := range biases {
		if p := b.Polarization(); p > m {
			m = p
		}
	}
	return m
}

// WalkSAT attempts to satisfy f by stochastic local search, returning a
// satisfying assignment or ok=false after maxFlips flips. noise is the
// random-walk probability (0.5 is a robust default).
func WalkSAT(f *Formula, r *rng.Rand, maxFlips int, noise float64) (Assignment, bool) {
	if f.NumVars == 0 {
		if len(f.Clauses) == 0 {
			return Assignment{}, true
		}
		return nil, false
	}
	a := make(Assignment, f.NumVars)
	for i := range a {
		a[i] = int8(r.Intn(2))
	}
	satLit := func(l Lit) bool { return (a[l.Var] == 1) != l.Neg }
	unsat := func() []int {
		var out []int
		for ci, c := range f.Clauses {
			sat := false
			for _, l := range c.Lits {
				if satLit(l) {
					sat = true
					break
				}
			}
			if !sat {
				out = append(out, ci)
			}
		}
		return out
	}
	breakCount := func(v int) int {
		// Clauses currently satisfied only by v.
		count := 0
		for _, c := range f.Clauses {
			satBy, sats := -1, 0
			for _, l := range c.Lits {
				if satLit(l) {
					sats++
					satBy = l.Var
				}
			}
			if sats == 1 && satBy == v {
				count++
			}
		}
		return count
	}
	for flip := 0; flip < maxFlips; flip++ {
		u := unsat()
		if len(u) == 0 {
			return a, true
		}
		c := f.Clauses[u[r.Intn(len(u))]]
		var pick int
		if r.Float64() < noise {
			pick = c.Lits[r.Intn(len(c.Lits))].Var
		} else {
			best, bestBreak := -1, math.MaxInt
			for _, l := range c.Lits {
				if bc := breakCount(l.Var); bc < bestBreak {
					best, bestBreak = l.Var, bc
				}
			}
			pick = best
		}
		a[pick] ^= 1
	}
	return nil, false
}

// SolveOptions tunes the SP-guided decimation solver.
type SolveOptions struct {
	Eps          float64 // SP convergence threshold (default 1e-3)
	MaxSweeps    int     // sweeps per SP run (default 300)
	DecimateFrac float64 // fraction of variables fixed per round (default 0.04)
	Paramagnetic float64 // polarization below which WalkSAT takes over (default 0.01)
	WalkFlips    int     // WalkSAT budget (default 200_000)
}

func (o *SolveOptions) defaults() {
	if o.Eps == 0 {
		o.Eps = 1e-3
	}
	if o.MaxSweeps == 0 {
		o.MaxSweeps = 300
	}
	if o.DecimateFrac == 0 {
		o.DecimateFrac = 0.04
	}
	if o.Paramagnetic == 0 {
		o.Paramagnetic = 0.01
	}
	if o.WalkFlips == 0 {
		o.WalkFlips = 200000
	}
}

// Solve runs SP-guided decimation: converge surveys, fix the most
// polarized variables, simplify, repeat; when the surveys go
// paramagnetic the residual formula goes to WalkSAT. It returns a total
// satisfying assignment for the original formula or an error.
func Solve(f *Formula, r *rng.Rand, opts SolveOptions) (Assignment, error) {
	opts.defaults()
	global := NewAssignment(f.NumVars)
	// forward[i] = current residual index of original variable i.
	forward := make([]int, f.NumVars)
	for i := range forward {
		forward[i] = i
	}
	cur := f
	for cur.NumVars > 0 && len(cur.Clauses) > 0 {
		st := NewState(cur, r)
		st.Converge(opts.Eps, opts.MaxSweeps)
		biases := st.Biases()
		if MaxPolarization(biases) < opts.Paramagnetic {
			break // paramagnetic: local search finishes the job
		}
		// Fix the top-polarization variables.
		k := int(float64(cur.NumVars)*opts.DecimateFrac) + 1
		local := NewAssignment(cur.NumVars)
		// Selection by repeated max keeps this dependency-free.
		for fixed := 0; fixed < k; fixed++ {
			best, bestP := -1, -1.0
			for _, b := range biases {
				if local[b.Var] == -1 && b.Polarization() > bestP {
					best, bestP = b.Var, b.Polarization()
				}
			}
			if best < 0 {
				break
			}
			if biases[best].WPlus >= biases[best].WMinus {
				local[best] = 1
			} else {
				local[best] = 0
			}
		}
		if _, err := cur.UnitPropagate(local); err != nil {
			return nil, fmt.Errorf("sp: decimation hit a contradiction: %w", err)
		}
		next, remap, err := cur.Simplify(local)
		if err != nil {
			return nil, fmt.Errorf("sp: decimation hit a contradiction: %w", err)
		}
		// Fold local decisions back into the global assignment.
		for orig, cu := range forward {
			if cu < 0 {
				continue
			}
			if local[cu] != -1 {
				global[orig] = local[cu]
				forward[orig] = -1
			} else {
				forward[orig] = remap[cu]
			}
		}
		cur = next
	}
	// Residual formula: WalkSAT (or trivial).
	if len(cur.Clauses) > 0 {
		sub, ok := WalkSAT(cur, r, opts.WalkFlips, 0.5)
		if !ok {
			return nil, fmt.Errorf("sp: WalkSAT failed on residual with %d vars / %d clauses",
				cur.NumVars, len(cur.Clauses))
		}
		for orig, cu := range forward {
			if cu >= 0 {
				global[orig] = sub[cu]
			}
		}
	}
	// Unconstrained leftovers can take any value.
	for i, v := range global {
		if v == -1 {
			global[i] = 0
		}
	}
	if err := f.Satisfied(global); err != nil {
		return nil, fmt.Errorf("sp: produced assignment fails verification: %w", err)
	}
	return global, nil
}
