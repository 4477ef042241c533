package gf2

import (
	"errors"
	"math/bits"
)

// ErrSingular is returned when an inverse of a singular matrix is requested
// or a linear system has no solution.
var ErrSingular = errors.New("gf2: matrix is singular / system unsolvable")

// RowReduce transforms m in place to reduced row echelon form and returns
// the pivot column of each pivot row, in order. Rows below the rank are
// zero after the call.
//
// The pivot search reads a word of every row at or below the next pivot
// row at once: their OR, above the current column, holds the next pivot
// column or says the word has none. The rows at or below the pivot row
// are zero left of its column, so elimination starts at its word.
func (m *Dense) RowReduce() (pivots []int) { return m.eliminate(true) }

// eliminate brings m to row echelon form in place and returns the pivot
// columns, clearing each pivot column above its pivot row as well when
// reduced is set (RowReduce) and only below it otherwise (Rank).
func (m *Dense) eliminate(reduced bool) (pivots []int) {
	r := 0
	for c := 0; c < m.cols && r < m.rows; {
		wc := c / wordBits
		var cand uint64
		for i := r; i < m.rows; i++ {
			cand |= m.w[i*m.stride+wc]
		}
		if cand &= ^uint64(0) << (uint(c) % wordBits); cand == 0 {
			c = (wc + 1) * wordBits
			continue
		}
		c = wc*wordBits + bits.TrailingZeros64(cand)
		mask := uint64(1) << (uint(c) % wordBits)
		p := r
		for m.w[p*m.stride+wc]&mask == 0 {
			p++
		}
		m.SwapRows(r, p)
		piv := m.w[r*m.stride+wc : (r+1)*m.stride]
		first := r + 1
		if reduced {
			first = 0
		}
		for i := first; i < m.rows; i++ {
			if row := m.w[i*m.stride+wc : (i+1)*m.stride]; i != r && row[0]&mask != 0 {
				for k, w := range piv {
					row[k] ^= w
				}
			}
		}
		pivots = append(pivots, c)
		r++
		c++
	}
	return pivots
}

// Rank returns the GF(2) rank of m without modifying it.
func (m *Dense) Rank() int {
	return len(m.Clone().eliminate(false))
}

// Inverse returns m⁻¹ for a square full-rank matrix, or ErrSingular.
func (m *Dense) Inverse() (*Dense, error) {
	if m.rows != m.cols {
		return nil, errors.New("gf2: Inverse of non-square matrix")
	}
	n := m.rows
	aug := HStack(m, Eye(n))
	pivots := aug.RowReduce()
	if len(pivots) != n || pivots[n-1] != n-1 {
		return nil, ErrSingular
	}
	return aug.Submatrix(0, n, n, 2*n), nil
}

// Solve returns one solution x of m·x = b, or ErrSingular when the system
// is inconsistent. When the system is underdetermined an arbitrary
// particular solution (free variables set to zero) is returned.
func (m *Dense) Solve(b Vec) (Vec, error) {
	if b.n != m.rows {
		return Vec{}, errors.New("gf2: Solve dimension mismatch")
	}
	aug := NewDense(m.rows, m.cols+1)
	for i := 0; i < m.rows; i++ {
		copy(aug.row(i), m.row(i))
		if b.Get(i) {
			aug.Set(i, m.cols, true)
		}
	}
	// Eliminate, but never pivot on the augmented column.
	r := 0
	var pivots []int
	for c := 0; c < m.cols && r < m.rows; c++ {
		p := -1
		for i := r; i < m.rows; i++ {
			if aug.At(i, c) {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		aug.SwapRows(r, p)
		for i := 0; i < m.rows; i++ {
			if i != r && aug.At(i, c) {
				aug.RowXor(i, r)
			}
		}
		pivots = append(pivots, c)
		r++
	}
	// Inconsistent if a zero row has RHS 1.
	for i := r; i < m.rows; i++ {
		if aug.At(i, m.cols) {
			return Vec{}, ErrSingular
		}
	}
	x := NewVec(m.cols)
	for i, c := range pivots {
		if aug.At(i, m.cols) {
			x.Set(c, true)
		}
	}
	return x, nil
}

// NullSpace returns a basis (as rows of a matrix) of the right null space
// {x : m·x = 0}. The result has Cols() == m.Cols() and Rows() == nullity.
func (m *Dense) NullSpace() *Dense {
	work := m.Clone()
	pivots := work.RowReduce()
	isPivot := make([]bool, m.cols)
	for _, c := range pivots {
		isPivot[c] = true
	}
	var free []int
	for c := 0; c < m.cols; c++ {
		if !isPivot[c] {
			free = append(free, c)
		}
	}
	basis := NewDense(len(free), m.cols)
	for bi, f := range free {
		basis.Set(bi, f, true)
		// Back-substitute: pivot row i has pivot column pivots[i]; the
		// value of that pivot variable is the entry of the row at column f.
		for i, c := range pivots {
			if work.At(i, f) {
				basis.Set(bi, c, true)
			}
		}
	}
	return basis
}

// RowSpaceContains reports whether v lies in the row space of m.
func (m *Dense) RowSpaceContains(v Vec) bool {
	if v.n != m.cols {
		panic("gf2: RowSpaceContains length mismatch")
	}
	work := m.Clone()
	pivots := work.RowReduce()
	res := v.Clone()
	for i, c := range pivots {
		if res.Get(c) {
			res.Xor(work.Row(i))
		}
	}
	return res.IsZero()
}

// IndependentRows returns indices of a maximal linearly independent subset
// of the rows of m, in increasing order. Each row is reduced against the
// rows kept before it, stored end to end, and kept when a bit survives.
func (m *Dense) IndependentRows() []int {
	var basis []uint64
	var leads []int
	var out []int
	r := make([]uint64, m.stride)
	for i := 0; i < m.rows; i++ {
		copy(r, m.row(i))
		for bi, c := range leads {
			if r[c/wordBits]>>(uint(c)%wordBits)&1 == 1 {
				for k, w := range basis[bi*m.stride : (bi+1)*m.stride] {
					r[k] ^= w
				}
			}
		}
		for wi, w := range r {
			if w != 0 {
				basis = append(basis, r...)
				leads = append(leads, wi*wordBits+bits.TrailingZeros64(w))
				out = append(out, i)
				break
			}
		}
	}
	return out
}
