package gf2

import (
	"errors"
	"math/bits"
)

// ErrSingular is returned when an inverse of a singular matrix is requested
// or a linear system has no solution.
var ErrSingular = errors.New("gf2: matrix is singular / system unsolvable")

// RowReduce transforms m in place to reduced row echelon form and
// returns the pivot column of each pivot row, in order, appended to
// pivots[:0]. Only the columns visited pivot: those of order, in turn,
// or with order nil the columns left of bound, left to right, so [A | b]
// reduced with bound A.Cols() keeps b out of the pivots. Each pivot is
// the first row at or below the next pivot row that holds the column.
// Rows below the rank are zero on every visited column after the call.
//
// Left to right, the pivot search reads a word of every row at or below
// the next pivot row at once: their OR, above the current column, holds
// the next pivot column or says the word has none. The pivot row is
// then zero left of its column, so elimination starts at its word. In a
// given order a pivot row may hold bits left of its column, so whole
// rows are XORed.
func (m *Dense) RowReduce(pivots, order []int, bound int) []int {
	pivots = pivots[:0]
	r := 0
	if order != nil {
		for _, c := range order {
			if r == m.rows {
				break
			}
			wc, mask := c/wordBits, uint64(1)<<(uint(c)%wordBits)
			p := r
			for p < m.rows && m.w[p*m.stride+wc]&mask == 0 {
				p++
			}
			if p < m.rows {
				m.pivot(r, p, wc, mask, 0)
				pivots = append(pivots, c)
				r++
			}
		}
		return pivots
	}
	for c := 0; c < bound && r < m.rows; {
		wc := c / wordBits
		var cand uint64
		for i := r; i < m.rows; i++ {
			cand |= m.w[i*m.stride+wc]
		}
		if cand &= ^uint64(0) << (uint(c) % wordBits); cand == 0 {
			c = (wc + 1) * wordBits
			continue
		}
		if c = wc*wordBits + bits.TrailingZeros64(cand); c >= bound {
			break
		}
		mask := uint64(1) << (uint(c) % wordBits)
		p := r
		for m.w[p*m.stride+wc]&mask == 0 {
			p++
		}
		m.pivot(r, p, wc, mask, wc)
		pivots = append(pivots, c)
		r++
		c++
	}
	return pivots
}

// pivot swaps row p into row r and adds it to every other row holding
// the pivot bit (word wc, mask), from word from on.
func (m *Dense) pivot(r, p, wc int, mask uint64, from int) {
	m.SwapRows(r, p)
	piv := m.w[r*m.stride+from : (r+1)*m.stride]
	for i := 0; i < m.rows; i++ {
		if i != r && m.w[i*m.stride+wc]&mask != 0 {
			row := m.w[i*m.stride+from : (i+1)*m.stride]
			for k, w := range piv {
				row[k] ^= w
			}
		}
	}
}

// Rank returns the GF(2) rank of m without modifying it.
func (m *Dense) Rank() int {
	return len(m.Clone().RowReduce(nil, nil, m.cols))
}

// Inverse returns m⁻¹ for a square full-rank matrix, or ErrSingular.
// The inverse of the 0×0 matrix is itself.
func (m *Dense) Inverse() (*Dense, error) {
	if m.rows != m.cols {
		return nil, errors.New("gf2: Inverse of non-square matrix")
	}
	n := m.rows
	aug := HStack(m, Eye(n))
	if len(aug.RowReduce(nil, nil, n)) != n {
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
	pivots := aug.RowReduce(nil, nil, m.cols)
	// Inconsistent if a zero row has RHS 1.
	for i := len(pivots); i < m.rows; i++ {
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
	pivots := work.RowReduce(nil, nil, m.cols)
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

// Echelon is a basis built one row at a time in echelon form: every
// vector in it is zero at the leads of the vectors added before it. The
// vectors are stored end to end, and each lead as the word that holds
// it and the mask that selects it. The zero value is an empty basis;
// every row added must have the same width.
type Echelon struct {
	vecs    []uint64
	leadW   []int
	leadM   []uint64
	scratch []uint64
}

// AddRow reduces row i of m against the basis and adds the remainder
// when it is not zero, reporting whether it did: whether the row lies
// outside the span of the rows added before it.
func (e *Echelon) AddRow(m *Dense, i int) bool {
	r := e.residual(m.row(i))
	for wi, w := range r {
		if w != 0 {
			e.vecs = append(e.vecs, r...)
			e.leadW = append(e.leadW, wi)
			e.leadM = append(e.leadM, w&-w)
			return true
		}
	}
	return false
}

// Dim returns the number of vectors in the basis.
func (e *Echelon) Dim() int { return len(e.leadW) }

// residual reduces v against the basis and returns the remainder, held
// in a buffer the next residual or AddRow call overwrites.
func (e *Echelon) residual(v []uint64) []uint64 {
	words := len(v)
	if len(e.scratch) != words {
		e.scratch = make([]uint64, words)
	}
	r := e.scratch
	copy(r, v)
	for i, w := range e.leadW {
		if r[w]&e.leadM[i] != 0 {
			for k, b := range e.vecs[i*words : (i+1)*words] {
				r[k] ^= b
			}
		}
	}
	return r
}
