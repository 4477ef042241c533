package decouple

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"vegapunk/internal/gf2"
)

// synthesize builds the exact decoupling artifact for a given row
// partition (groups of equal size m/K). It fails when some group's
// interior columns cannot supply an identity (rank < m_D).
//
// The transformation T is block-local: within each group it is the
// inverse of the chosen pivot submatrix (so the pivots become the
// identity), and globally it also folds in the row permutation that
// makes groups contiguous. Block-locality means T never moves support
// across groups, so column interiority — and therefore the block
// structure — is preserved exactly.
func synthesize(v *searchView, groups [][]int) (*Decoupling, error) {
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

	// Classify columns: interior to a single group, or crossing (→ A).
	// Zero columns are useless and parked in A with the crossing ones.
	interior := make([][]int, K) // interior column ids per group
	var crossing []int
	for j := 0; j < v.n; j++ {
		g := -1
		if sup := v.cols.ColSupport(j); len(sup) > 0 {
			g = uniformGroup(sup, groupOf)
		}
		if g >= 0 {
			interior[g] = append(interior[g], j)
		} else {
			crossing = append(crossing, j)
		}
	}

	// Per group: pick m_D pivot columns (lightest first — unit columns
	// make T_g the identity) whose local submatrix is invertible. An
	// interior column is zero outside its group's rows, so independence
	// can be read off the full packed columns. The global T folds each
	// local inverse T_g in: output row g·m_D + a = Σ_b T_g[a,b] · (input
	// row rows[b]).
	T := gf2.NewDense(m, m)
	pivots := make([][]int, K)
	local := make([]int, m) // position of a row inside its sorted group
	for g := 0; g < K; g++ {
		rows := slices.Clone(groups[g])
		sort.Ints(rows)
		for b, r := range rows {
			local[r] = b
		}
		cand := interior[g]
		sort.SliceStable(cand, func(a, b int) bool { return v.cols.ColWeight(cand[a]) < v.cols.ColWeight(cand[b]) })
		var ech echelon
		mg := gf2.NewDense(mD, mD)
		nonPiv := cand[:0]
		for _, j := range cand {
			if ech.dim() < mD && ech.add(v.vecs[j]) {
				for _, r := range v.cols.ColSupport(j) {
					mg.Set(local[r], len(pivots[g]), true)
				}
				pivots[g] = append(pivots[g], j)
			} else {
				nonPiv = append(nonPiv, j)
			}
		}
		if ech.dim() < mD {
			return nil, fmt.Errorf("decouple: group %d interior rank %d < %d", g, ech.dim(), mD)
		}
		interior[g] = nonPiv
		tg, err := mg.Inverse()
		if err != nil {
			return nil, errors.New("decouple: pivot submatrix unexpectedly singular")
		}
		for a := 0; a < mD; a++ {
			for b := 0; b < mD; b++ {
				if tg.At(a, b) {
					T.Set(g*mD+a, rows[b], true)
				}
			}
		}
	}
	return buildArtifact(v, T, pivots, interior, crossing)
}

// buildArtifact builds the artifact for a transformation T given, per
// block, the columns that become its identity and its other interior
// columns, in take order. Every block takes as many interior columns as
// the scarcest block has (uniform n_D = m_D + spare); the surplus, then
// tail, go to A. T·D is formed once and read through one sparse pass.
func buildArtifact(v *searchView, T *gf2.Dense, identity, interior [][]int, tail []int) (*Decoupling, error) {
	K := len(identity)
	mD := v.m / K
	spare := len(interior[0])
	for _, cols := range interior[1:] {
		spare = min(spare, len(cols))
	}
	dec := &Decoupling{
		M: v.m, N: v.n, K: K, MD: mD, ND: mD + spare,
		T:      T,
		Blocks: make([]*gf2.SparseCols, K),
	}
	td := gf2.SparseFromDense(T.Mul(v.D))
	var colOrder, aCols, sup []int
	for g := range identity {
		colOrder = append(append(colOrder, identity[g]...), interior[g][:spare]...)
		aCols = append(aCols, interior[g][spare:]...)
		// B part: transformed interior columns restricted to the
		// block's rows.
		b := gf2.NewSparseCols(mD, spare)
		for jj, j := range interior[g][:spare] {
			sup = sup[:0]
			for _, r := range td.ColSupport(j) {
				if t := r - g*mD; t >= 0 && t < mD {
					sup = append(sup, t)
				}
			}
			b.SetColSupport(jj, sup)
		}
		dec.Blocks[g] = b
	}
	aCols = append(aCols, tail...)
	dec.NA = len(aCols)
	dec.A = gf2.NewSparseCols(v.m, dec.NA)
	for jj, j := range aCols {
		dec.A.SetColSupport(jj, td.ColSupport(j))
	}
	dec.ColOrder = append(colOrder, aCols...)
	if len(dec.ColOrder) != v.n {
		return nil, fmt.Errorf("decouple: column accounting %d != %d", len(dec.ColOrder), v.n)
	}
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
