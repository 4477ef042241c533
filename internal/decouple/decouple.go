// Package decouple implements Vegapunk's offline check-matrix decoupling
// (paper §4.2): find a full-rank row transformation T and a column
// permutation (given by ColOrder) such that
//
//	D' = T · D · P = ( diag(D_1, …, D_K) | A ),  D_i = ( I | B_i )
//
// with every D_i the same shape m_D × n_D and A as sparse as possible
// (the paper's Eq. 11 objective).
//
// The paper hands this search to an SMT solver over an arbitrary
// full-rank T. Here the formulation is approximated by row partitions
// (DESIGN.md §1): every candidate is a partition of the rows into K
// groups — contiguous, strided or grown by row affinity, each also
// refined by a seeded local search — and T is synthesized as the inverse
// of the columns chosen to become the identities. Those columns are zero
// outside their group's rows, so every T is block-local: it preserves the
// cross-group support of every column, and the resulting decoupling is
// exact and validated bit-for-bit against T·D·P. On the repo's codes
// each of the three partitions and the refinement wins somewhere, and a
// general-T direct-sum search that used to run beside them won nowhere,
// so it was deleted (EXPERIMENTS.md, "Which decoupling strategy wins").
//
// For one K the order of work is plan → rank → build → validate. A plan
// carries its partition and a count of each group's interior columns:
// with every group of rank m_D its coverage K·n_D is K times the smallest
// count, exact before anything is built. Its identity columns (the
// pivots) are chosen only when it is built, which fails if a group is
// short of rank. Plans are ranked by coverage; only those tied at the
// top are built (T, T·D, the sparse blocks — the nonzero-count tie-break
// needs them), and none at all when that coverage falls short of
// minCoverage; the candidate about to win is validated, and one
// that fails to build or validate gives way to the next best.
//
// Across Ks the search does only the work the returned artifact depends
// on. A K whose coverage bound (searchView.coverageBound, an upper limit
// on the interior columns of any partition into groups of m/K rows)
// falls short of minCoverage is not planned. The other Ks are planned
// concurrently but resolved in order, each only once every K before it
// has fallen short, so no K after the winner is built or validated.
//
// All strategies read one searchView of D, built once per call: the
// distinct columns with their multiplicities, each row's unit-column
// count, the refinement's swap-trial sequence, the affinity row mass,
// the bound, and a neighbour table listing, per row, each distinct column
// of weight ≥ 2 on the row with its multiplicity and other rows in one
// flat span, with a pair index listing, per pair of rows, the entries of
// the first that hold the second. Affinity clustering sums row
// affinities from the spans of the rows it assigns. The refinement's
// swap trials are evaluated from a per-row, per-group count kept up to
// date on accepted swaps only, corrected for the columns the two rows
// share by reading those entries only when the count promises a gain
// (refiner).
package decouple

import (
	"errors"
	"fmt"

	"vegapunk/internal/gf2"
)

// Decoupling is the offline artifact consumed by the online hierarchical
// decoder. All fields describe the exact factorization D' = T·D·P.
type Decoupling struct {
	// M, N are the original check matrix dimensions.
	M, N int
	// K is the number of diagonal blocks; MD × ND their common shape;
	// NA the number of columns of the off-diagonal sparse matrix A.
	K, MD, ND, NA int
	// T is the m×m full-rank transformation, and TRows its row view
	// (the transformation unit's per-row XOR reduction ROM).
	T     *gf2.Dense
	TRows *gf2.CSR
	// ColOrder defines the permutation: column j of D' is column
	// ColOrder[j] of T·D. The first K·ND entries belong to the blocks
	// (identity columns first within each block), the last NA to A.
	ColOrder []int
	// Blocks hold the B part of each D_i = (I | B): MD × (ND-MD).
	Blocks []*gf2.CSC
	// A is the off-diagonal sparse matrix (M × NA).
	A *gf2.CSC
}

// Sparsity returns the maximum column weight of A and of the block B
// parts — the two "Spars." columns of the paper's Table 2.
func (d *Decoupling) Sparsity() (aSpars, blockSpars int) {
	aSpars = d.A.MaxColWeight()
	blockSpars = 1 // identity columns
	for _, b := range d.Blocks {
		if w := b.MaxColWeight(); w > blockSpars {
			blockSpars = w
		}
	}
	return aSpars, blockSpars
}

// NNZ returns the total number of nonzeros of D' (the Eq. 11 objective
// value achieved).
func (d *Decoupling) NNZ() int {
	t := d.K * d.MD // identities
	for _, b := range d.Blocks {
		t += b.NNZ()
	}
	return t + d.A.NNZ()
}

// Assemble reconstructs the dense D' from the structured parts.
func (d *Decoupling) Assemble() *gf2.Dense {
	out := gf2.NewDense(d.M, d.K*d.ND+d.NA)
	for g := 0; g < d.K; g++ {
		r0 := g * d.MD
		c0 := g * d.ND
		for t := 0; t < d.MD; t++ {
			out.Set(r0+t, c0+t, true)
		}
		b := d.Blocks[g]
		for j := 0; j < b.Cols(); j++ {
			for _, i := range b.ColSpan(j) {
				out.Set(r0+int(i), c0+d.MD+j, true)
			}
		}
	}
	aOff := d.K * d.ND
	for j := 0; j < d.NA; j++ {
		for _, i := range d.A.ColSpan(j) {
			out.Set(int(i), aOff+j, true)
		}
	}
	return out
}

// Validate proves the factorization is exact against the original check
// matrix: T full rank, ColOrder a permutation, and T·D·P equal to the
// assembled structured form entry by entry.
func (d *Decoupling) Validate(D *gf2.Dense) error {
	if D.Rows() != d.M || D.Cols() != d.N {
		return fmt.Errorf("decouple: original matrix is %dx%d, artifact says %dx%d",
			D.Rows(), D.Cols(), d.M, d.N)
	}
	if d.K*d.ND+d.NA != d.N {
		return fmt.Errorf("decouple: column budget K·ND+NA = %d ≠ N = %d", d.K*d.ND+d.NA, d.N)
	}
	if d.K*d.MD != d.M {
		return fmt.Errorf("decouple: row budget K·MD = %d ≠ M = %d", d.K*d.MD, d.M)
	}
	if err := gf2.Perm(d.ColOrder).Validate(); err != nil {
		return fmt.Errorf("decouple: ColOrder: %w", err)
	}
	if _, err := d.T.Inverse(); err != nil {
		return errors.New("decouple: T is singular")
	}
	td := d.T.Mul(D)
	dp := td.PermuteCols(gf2.Perm(d.ColOrder)) // column j = (T·D) col ColOrder[j]
	if !dp.Equal(d.Assemble()) {
		return errors.New("decouple: T·D·P does not match assembled block form")
	}
	return nil
}

// TransformSyndromeInto computes s' = T·s into out without allocating.
func (d *Decoupling) TransformSyndromeInto(out, s gf2.Vec) {
	d.T.MulVecInto(out, s)
}

// PermuteWeights maps per-column objective weights of D into D' column
// order: w'[j] = w[ColOrder[j]].
func (d *Decoupling) PermuteWeights(w []float64) []float64 {
	return gf2.Perm(d.ColOrder).ApplyToSlice(w)
}

// RecoverError maps an error in D' column order back to original column
// order (the paper's final e = P·e').
func (d *Decoupling) RecoverError(ePrime gf2.Vec) gf2.Vec {
	out := gf2.NewVec(d.N)
	for _, j := range ePrime.Ones() {
		out.Set(d.ColOrder[j], true)
	}
	return out
}
