package smt

import (
	"math/rand/v2"
	"testing"
)

func TestTrivialSatUnsat(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	if !s.AddClause(Pos(a)) || !s.Solve() {
		t.Fatal("single positive unit should be SAT")
	}
	if !s.Value(a) {
		t.Error("a should be true")
	}

	s2 := NewSolver()
	b := s2.NewVar()
	s2.AddClause(Pos(b))
	s2.AddClause(Neg(b))
	if s2.Solve() {
		t.Error("a ∧ ¬a should be UNSAT")
	}
}

func TestLitHelpers(t *testing.T) {
	v := Var(3)
	if Pos(v).Var() != v || Neg(v).Var() != v {
		t.Error("Var() broken")
	}
	if Pos(v).Sign() || !Neg(v).Sign() {
		t.Error("Sign() broken")
	}
	if Pos(v).Not() != Neg(v) || Neg(v).Not() != Pos(v) {
		t.Error("Not() broken")
	}
}

func TestImplicationChain(t *testing.T) {
	s := NewSolver()
	n := 30
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		s.AddClause(Neg(vs[i]), Pos(vs[i+1])) // v_i -> v_{i+1}
	}
	s.AddClause(Pos(vs[0]))
	if !s.Solve() {
		t.Fatal("chain should be SAT")
	}
	for i, v := range vs {
		if !s.Value(v) {
			t.Fatalf("v%d should be forced true", i)
		}
	}
	// Now force the last variable false → UNSAT.
	s.AddClause(Neg(vs[n-1]))
	if s.Solve() {
		t.Error("contradictory chain should be UNSAT")
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(4,3): 4 pigeons in 3 holes — classically UNSAT and a decent
	// stress of clause learning.
	s := NewSolver()
	const pigeons, holes = 4, 3
	x := [pigeons][holes]Var{}
	for p := 0; p < pigeons; p++ {
		for h := 0; h < holes; h++ {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := []Lit{}
		for h := 0; h < holes; h++ {
			lits = append(lits, Pos(x[p][h]))
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(Neg(x[p1][h]), Neg(x[p2][h]))
			}
		}
	}
	if s.Solve() {
		t.Error("pigeonhole PHP(4,3) must be UNSAT")
	}
}

// bruteForceSat checks satisfiability of a small CNF by enumeration.
func bruteForceSat(nVars int, cnf [][]Lit) bool {
	for mask := 0; mask < 1<<nVars; mask++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := mask>>int(l.Var())&1 == 1
				if l.Sign() {
					val = !val
				}
				if val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	for trial := 0; trial < 120; trial++ {
		nVars := 4 + rng.IntN(7)     // 4..10
		nClauses := 3 + rng.IntN(40) // 3..42
		var cnf [][]Lit
		s := NewSolver()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for c := 0; c < nClauses; c++ {
			k := 1 + rng.IntN(3)
			cl := make([]Lit, k)
			for i := range cl {
				v := Var(rng.IntN(nVars))
				if rng.IntN(2) == 0 {
					cl[i] = Pos(v)
				} else {
					cl[i] = Neg(v)
				}
			}
			cnf = append(cnf, cl)
			s.AddClause(cl...)
		}
		want := bruteForceSat(nVars, cnf)
		got := s.Solve()
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v (vars=%d clauses=%v)",
				trial, got, want, nVars, cnf)
		}
		if got {
			// Verify the model actually satisfies the CNF.
			for _, cl := range cnf {
				sat := false
				for _, l := range cl {
					if s.LitValue(l) {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: returned model violates clause %v", trial, cl)
				}
			}
		}
	}
}

func TestSolveRepeatable(t *testing.T) {
	s := NewSolver()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Pos(a), Pos(b))
	if !s.Solve() || !s.Solve() {
		t.Error("Solve should be repeatable")
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	// A hard pigeonhole with a tiny budget must return exhausted.
	s := NewSolver()
	const pigeons, holes = 7, 6
	x := [pigeons][holes]Var{}
	for p := 0; p < pigeons; p++ {
		for h := 0; h < holes; h++ {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := []Lit{}
		for h := 0; h < holes; h++ {
			lits = append(lits, Pos(x[p][h]))
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(Neg(x[p1][h]), Neg(x[p2][h]))
			}
		}
	}
	s.MaxConflicts = 5
	if s.Solve() {
		t.Fatal("should not be SAT")
	}
	if !s.Exhausted {
		t.Error("expected Exhausted with 5-conflict budget on PHP(7,6)")
	}
}

func TestLubySequence(t *testing.T) {
	// The fourth restart used to panic (negative shift): every search
	// that outlived 400 conflicts crashed instead of restarting.
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}
