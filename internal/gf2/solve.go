package gf2

import "errors"

// ErrSingular is returned when an inverse of a singular matrix is requested
// or a linear system has no solution.
var ErrSingular = errors.New("gf2: matrix is singular / system unsolvable")

// RowReduce transforms m in place to reduced row echelon form and returns
// the pivot column of each pivot row, in order. Rows below the rank are
// zero after the call.
func (m *Dense) RowReduce() (pivots []int) {
	r := 0
	for c := 0; c < m.cols && r < m.rows; c++ {
		// Find a pivot at or below row r in column c.
		p := -1
		for i := r; i < m.rows; i++ {
			if m.At(i, c) {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		m.SwapRows(r, p)
		for i := 0; i < m.rows; i++ {
			if i != r && m.At(i, c) {
				m.RowXor(i, r)
			}
		}
		pivots = append(pivots, c)
		r++
	}
	return pivots
}

// Rank returns the GF(2) rank of m without modifying it.
func (m *Dense) Rank() int {
	c := m.Clone()
	return len(c.RowReduce())
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
// of the rows of m, in increasing order.
func (m *Dense) IndependentRows() []int {
	work := NewDense(0, m.cols)
	basis := make([][]uint64, 0)
	pivcols := make([]int, 0)
	_ = work
	var out []int
	for i := 0; i < m.rows; i++ {
		r := make([]uint64, m.stride)
		copy(r, m.row(i))
		// Reduce against current basis.
		for bi, b := range basis {
			c := pivcols[bi]
			if r[c/wordBits]>>(uint(c)%wordBits)&1 == 1 {
				for k := range r {
					r[k] ^= b[k]
				}
			}
		}
		// Find leading one.
		lead := -1
		for wi, w := range r {
			if w != 0 {
				for b := 0; b < wordBits; b++ {
					if w>>uint(b)&1 == 1 {
						lead = wi*wordBits + b
						break
					}
				}
				break
			}
		}
		if lead >= 0 {
			basis = append(basis, r)
			pivcols = append(pivcols, lead)
			out = append(out, i)
		}
	}
	return out
}
