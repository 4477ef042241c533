package decouple

import (
	"fmt"
	"slices"

	"vegapunk/internal/gf2"
)

// plan is a row partition's decoupling candidate, decided but not yet
// materialised. Every block takes as many interior columns as the
// scarcest group has (uniform n_D = m_D + spare), so the plan already
// fixes the coverage K·n_D; only the Eq. 11 nonzero count needs the
// transformation, which build supplies.
type plan struct {
	K, nD int
	// groupOf is the group of each row.
	groupOf []int
	// dec is the built artifact, set by the selection that needed it.
	dec *Decoupling
}

// blockCols is K·n_D, the number of columns the blocks absorb.
func (p *plan) blockCols() int { return p.K * p.nD }

// planPartition plans the decoupling for a given row partition (groups
// of equal size m/K). It fails when some group has fewer than m_D
// interior columns. When every group's interior columns have rank m_D,
// the coverage is K times the smallest group's interior count, so the
// plan only counts; a group short of rank fails in build instead.
//
// The transformation this plan builds is block-local: the pivots of a
// group are zero outside its rows, so the inverse of the stacked pivot
// matrix is, within each group, the inverse of the pivot submatrix (the
// pivots become the identity) composed with the row permutation that
// makes groups contiguous. Block-locality means T never moves support
// across groups, so column interiority — and therefore the block
// structure — is preserved exactly.
func planPartition(v *searchView, groups [][]int) (*plan, error) {
	m := v.m
	K := len(groups)
	if K == 0 || m%K != 0 {
		return nil, fmt.Errorf("decouple: %d groups cannot tile %d rows", K, m)
	}
	mD := m / K
	for g, rows := range groups {
		if len(rows) != mD {
			return nil, fmt.Errorf("decouple: group %d has %d rows, want %d", g, len(rows), mD)
		}
	}

	// groupOf[r] = group index of row r.
	groupOf := make([]int, m)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for g, rows := range groups {
		for _, r := range rows {
			if groupOf[r] != -1 {
				return nil, fmt.Errorf("decouple: row %d in two groups", r)
			}
			groupOf[r] = g
		}
	}
	for r, g := range groupOf {
		if g < 0 {
			return nil, fmt.Errorf("decouple: row %d unassigned", r)
		}
	}

	count := make([]int, K) // interior columns per group
	for r, g := range groupOf {
		count[g] += v.units[r]
	}
	for i, j := range v.repr {
		if g := uniformGroup(v.cols.ColSpan(int(j)), groupOf); g >= 0 {
			count[g] += int(v.mult[i])
		}
	}
	for g, c := range count {
		if c < mD {
			return nil, fmt.Errorf("decouple: group %d has %d interior columns < %d", g, c, mD)
		}
	}
	return &plan{K: K, nD: slices.Min(count), groupOf: groupOf}, nil
}

// pickPivots makes the plan's column lists. Columns interior to a group
// go to it, the rest — crossing, and zero columns, which are useless —
// to the tail. Per group, the first m_D independent interior columns,
// lightest first (unit columns make the group's part of T the
// identity), become the identity; the group's other interior columns
// follow in the same order. An interior column is zero outside its
// group's rows, so independence can be read off the full columns.
func (p *plan) pickPivots(v *searchView) (identity, interior [][]int, tail []int, err error) {
	mD := v.m / p.K
	interior = make([][]int, p.K)
	for j := 0; j < v.n; j++ {
		g := -1
		if sup := v.cols.ColSpan(j); len(sup) > 0 {
			g = uniformGroup(sup, p.groupOf)
		}
		if g >= 0 {
			interior[g] = append(interior[g], j)
		} else {
			tail = append(tail, j)
		}
	}
	identity = make([][]int, p.K)
	for g, cand := range interior {
		slices.SortStableFunc(cand, func(a, b int) int { return v.cols.ColWeight(a) - v.cols.ColWeight(b) })
		var ech gf2.Echelon
		nonPiv := cand[:0]
		for _, j := range cand {
			if ech.Dim() < mD && ech.AddRow(v.colRows, j) {
				identity[g] = append(identity[g], j)
			} else {
				nonPiv = append(nonPiv, j)
			}
		}
		if ech.Dim() < mD {
			return nil, nil, nil, fmt.Errorf("decouple: group %d interior rank %d < %d", g, ech.Dim(), mD)
		}
		interior[g] = nonPiv
	}
	return identity, interior, tail, nil
}

// buildHook, when set, is called with K by every build. Tests set it to
// count the Ks a search materialises; it must be safe for concurrent use.
var buildHook func(K int)

// build materialises the plan: T is the inverse of the matrix whose
// column i·m_D+t is identity column t of block i (so those columns become
// the identities), T·D is formed once and read through one sparse pass.
// Each block keeps its first spare interior columns; the surplus, then
// the tail, go to A.
func (p *plan) build(v *searchView) (*Decoupling, error) {
	if buildHook != nil {
		buildHook(p.K)
	}
	identity, interior, tail, err := p.pickPivots(v)
	if err != nil {
		return nil, err
	}
	K := p.K
	mD := v.m / K
	spare := p.nD - mD
	basis := gf2.NewDense(v.m, v.m)
	for g, cols := range identity {
		for t, j := range cols {
			for _, r := range v.cols.ColSpan(j) {
				basis.Set(int(r), g*mD+t, true)
			}
		}
	}
	T, err := basis.Inverse()
	if err != nil {
		return nil, fmt.Errorf("decouple: identity columns not a basis: %w", err)
	}
	dec := &Decoupling{
		M: v.m, N: v.n, K: K, MD: mD, ND: p.nD,
		T:      T,
		TRows:  gf2.CSRFromDense(T),
		Blocks: make([]*gf2.CSC, K),
	}
	td := gf2.CSCFromDense(T.Mul(v.D))
	var colOrder, aCols []int
	var sups []int32 // one block's B supports, end to end
	for g := range identity {
		colOrder = append(append(colOrder, identity[g]...), interior[g][:spare]...)
		aCols = append(aCols, interior[g][spare:]...)
		// B part: transformed interior columns restricted to the
		// block's rows.
		b := make([][]int32, spare)
		sups = sups[:0]
		for jj, j := range interior[g][:spare] {
			at := len(sups)
			for _, r := range td.ColSpan(j) {
				if t := int(r) - g*mD; t >= 0 && t < mD {
					sups = append(sups, int32(t))
				}
			}
			b[jj] = sups[at:]
		}
		dec.Blocks[g] = gf2.CSCFromSupports(mD, b)
	}
	aCols = append(aCols, tail...)
	dec.NA = len(aCols)
	a := make([][]int32, dec.NA)
	for jj, j := range aCols {
		a[jj] = td.ColSpan(j)
	}
	dec.A = gf2.CSCFromSupports(v.m, a)
	dec.ColOrder = append(colOrder, aCols...)
	return dec, nil
}

// candidateKs returns the paper's K candidates: divisors of m with
// m/K ≥ S (the column sparsity), largest first, K ≥ 2.
func candidateKs(m, S int) []int {
	if S < 1 {
		S = 1
	}
	var ks []int
	for k := m / S; k >= 2; k-- {
		if m%k == 0 {
			ks = append(ks, k)
		}
	}
	return ks
}
