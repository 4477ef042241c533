package decouple

import (
	"errors"

	"vegapunk/internal/smt"
)

// satPartition solves the row-partition subproblem exactly with the SAT
// core: assign each row to one of K equal-size groups so that the number
// of columns confined to a single group is maximized (equivalently, the
// paper's Eq. 11 objective restricted to permutation structure — every
// crossing column lands in A with all its nonzeros).
//
// Variables:
//
//	x[r][g]  — row r belongs to group g (exactly one g per row,
//	           exactly m_D rows per group);
//	y[j][g]  — column j is interior to group g (y → x for every
//	           support row);
//	a[j]     — column j is exiled to A (a ∨ ⋁_g y[j][g]);
//
// minimizing Σ a[j].
func satPartition(v *searchView, K int, conflictBudget int) ([][]int, error) {
	m, n := v.m, v.n
	mD := m / K
	s := smt.NewSolver()
	s.MaxConflicts = conflictBudget

	x := make([][]smt.Var, m)
	for r := 0; r < m; r++ {
		x[r] = make([]smt.Var, K)
		rowLits := make([]smt.Lit, K)
		for g := 0; g < K; g++ {
			x[r][g] = s.NewVar()
			rowLits[g] = smt.Pos(x[r][g])
		}
		s.AddExactly(rowLits, 1)
	}
	for g := 0; g < K; g++ {
		colLits := make([]smt.Lit, m)
		for r := 0; r < m; r++ {
			colLits[r] = smt.Pos(x[r][g])
		}
		s.AddExactly(colLits, mD)
	}

	var objective []smt.Lit
	for j := 0; j < n; j++ {
		sup := v.cols.ColSupport(j)
		if len(sup) == 0 {
			continue // zero column always lands in A, not worth a variable
		}
		a := s.NewVar()
		cover := []smt.Lit{smt.Pos(a)}
		for g := 0; g < K; g++ {
			y := s.NewVar()
			for _, r := range sup {
				s.AddClause(smt.Neg(y), smt.Pos(x[r][g]))
			}
			cover = append(cover, smt.Pos(y))
		}
		s.AddClause(cover...)
		objective = append(objective, smt.Pos(a))
	}

	if _, sat := s.Minimize(objective); !sat {
		return nil, errors.New("decouple: SAT partition infeasible")
	}
	groups := make([][]int, K)
	for r := 0; r < m; r++ {
		placed := false
		for g := 0; g < K; g++ {
			if s.Value(x[r][g]) {
				groups[g] = append(groups[g], r)
				placed = true
				break
			}
		}
		if !placed {
			return nil, errors.New("decouple: SAT model left a row unassigned")
		}
	}
	return groups, nil
}
