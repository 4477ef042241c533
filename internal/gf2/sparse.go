package gf2

import (
	"math/bits"
	"sort"
)

// SparseCols is a column-major sparse GF(2) matrix: for each column it
// stores the sorted row indices of its nonzero entries. It is the format
// consumed by the online hierarchical decoder and the accelerator model,
// mirroring the paper's "sparse matrix table + non-zero row index table"
// compressed format (§5.2).
type SparseCols struct {
	rows, cols int
	col        [][]int
}

// NewSparseCols returns an empty rows×cols sparse matrix.
func NewSparseCols(rows, cols int) *SparseCols {
	return &SparseCols{rows: rows, cols: cols, col: make([][]int, cols)}
}

// SparseFromDense converts a dense matrix to sparse column form by
// scanning the packed row words (TrailingZeros64 per set bit) instead of
// probing every cell. Rows are visited in ascending order, so each column
// support comes out sorted. A first scan counts the column weights so all
// supports are carved from one backing array (empty columns stay nil).
func SparseFromDense(m *Dense) *SparseCols {
	s := NewSparseCols(m.Rows(), m.Cols())
	weight := make([]int, m.Cols())
	eachOne(m, func(_, j int) { weight[j]++ })
	backing := make([]int, m.NNZ())
	for j, w := range weight {
		if w > 0 {
			s.col[j], backing = backing[:0:w], backing[w:]
		}
	}
	eachOne(m, func(i, j int) { s.col[j] = append(s.col[j], i) })
	return s
}

// eachOne calls f(i, j) for every set entry of m, row by row, columns
// ascending within a row.
func eachOne(m *Dense, f func(i, j int)) {
	for i := 0; i < m.rows; i++ {
		for wi, w := range m.row(i) {
			for w != 0 {
				f(i, wi*wordBits+bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	}
}

// Rows returns the number of rows.
func (s *SparseCols) Rows() int { return s.rows }

// Cols returns the number of columns.
func (s *SparseCols) Cols() int { return s.cols }

// ColSupport returns the sorted nonzero row indices of column j. The
// returned slice is owned by the matrix and must not be modified.
func (s *SparseCols) ColSupport(j int) []int { return s.col[j] }

// SetColSupport assigns the support of column j (indices are copied and
// sorted).
func (s *SparseCols) SetColSupport(j int, support []int) {
	cp := make([]int, len(support))
	copy(cp, support)
	sort.Ints(cp)
	s.col[j] = cp
}

// ColWeight returns the number of nonzeros in column j.
func (s *SparseCols) ColWeight(j int) int { return len(s.col[j]) }

// MaxColWeight returns the maximum column weight (column sparsity S).
func (s *SparseCols) MaxColWeight() int {
	best := 0
	for _, c := range s.col {
		if len(c) > best {
			best = len(c)
		}
	}
	return best
}

// NNZ returns the total number of nonzeros.
func (s *SparseCols) NNZ() int {
	t := 0
	for _, c := range s.col {
		t += len(c)
	}
	return t
}

// ToDense converts back to dense form.
func (s *SparseCols) ToDense() *Dense {
	m := NewDense(s.rows, s.cols)
	for j, c := range s.col {
		for _, i := range c {
			m.Set(i, j, true)
		}
	}
	return m
}

// XorColInto flips the bits of v at the support of column j
// (v ^= column j). This is the accelerator's "sparse MVM + XOR" primitive.
func (s *SparseCols) XorColInto(v Vec, j int) {
	for _, i := range s.col[j] {
		v.Flip(i)
	}
}

// MulVec returns s·x for a vector x of length Cols.
func (s *SparseCols) MulVec(x Vec) Vec {
	out := NewVec(s.rows)
	s.MulVecInto(out, x)
	return out
}

// MulVecInto computes out = s·x without allocating, scanning the packed
// words of x so only set bits touch their column supports.
func (s *SparseCols) MulVecInto(out, x Vec) {
	if x.n != s.cols || out.n != s.rows {
		panic("gf2: SparseCols.MulVecInto dimension mismatch")
	}
	out.Zero()
	for wi, w := range x.w {
		for w != 0 {
			j := wi*wordBits + bits.TrailingZeros64(w)
			w &= w - 1
			for _, i := range s.col[j] {
				out.Flip(i)
			}
		}
	}
}

// At reports whether entry (i, j) is set.
func (s *SparseCols) At(i, j int) bool {
	c := s.col[j]
	k := sort.SearchInts(c, i)
	return k < len(c) && c[k] == i
}

// SparseRows is a row-major sparse matrix: for each row the sorted column
// indices of its nonzeros. Used by message-passing decoders and the
// transformation unit (sparse row · vector products).
type SparseRows struct {
	rows, cols int
	row        [][]int
}

// SparseRowsFromDense converts a dense matrix to sparse row form.
func SparseRowsFromDense(m *Dense) *SparseRows {
	s := &SparseRows{rows: m.Rows(), cols: m.Cols(), row: make([][]int, m.Rows())}
	for i := 0; i < m.Rows(); i++ {
		s.row[i] = m.Row(i).Ones()
	}
	return s
}

// Rows returns the number of rows.
func (s *SparseRows) Rows() int { return s.rows }

// Cols returns the number of columns.
func (s *SparseRows) Cols() int { return s.cols }

// RowSupport returns the sorted nonzero column indices of row i. The
// returned slice is owned by the matrix and must not be modified.
func (s *SparseRows) RowSupport(i int) []int { return s.row[i] }

// MaxRowWeight returns the maximum row weight.
func (s *SparseRows) MaxRowWeight() int {
	best := 0
	for _, r := range s.row {
		if len(r) > best {
			best = len(r)
		}
	}
	return best
}

// MulVec returns s·x via per-row parity accumulation.
func (s *SparseRows) MulVec(x Vec) Vec {
	if x.Len() != s.cols {
		panic("gf2: SparseRows.MulVec dimension mismatch")
	}
	out := NewVec(s.rows)
	for i, r := range s.row {
		par := false
		for _, j := range r {
			if x.Get(j) {
				par = !par
			}
		}
		if par {
			out.Set(i, true)
		}
	}
	return out
}
