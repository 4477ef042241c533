package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

// Dense is a bit-packed dense matrix over GF(2), stored row-major with a
// fixed per-row word stride. The zero value is an empty matrix; use
// NewDense to allocate.
type Dense struct {
	rows, cols int
	stride     int // words per row
	w          []uint64
}

// NewDense returns an all-zero rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("gf2: negative matrix dimension")
	}
	stride := wordsFor(cols)
	return &Dense{rows: rows, cols: cols, stride: stride, w: make([]uint64, rows*stride)}
}

// FromRows builds a matrix from 0/1 integer rows. All rows must have the
// same length.
func FromRows(rows [][]int) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("gf2: ragged rows in FromRows")
		}
		for j, b := range r {
			if b != 0 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, true)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At reports whether entry (i, j) is set.
func (m *Dense) At(i, j int) bool {
	return m.w[i*m.stride+j/wordBits]>>(uint(j)%wordBits)&1 == 1
}

// Set assigns entry (i, j).
func (m *Dense) Set(i, j int, b bool) {
	idx := i*m.stride + j/wordBits
	if b {
		m.w[idx] |= 1 << (uint(j) % wordBits)
	} else {
		m.w[idx] &^= 1 << (uint(j) % wordBits)
	}
}

// Flip toggles entry (i, j).
func (m *Dense) Flip(i, j int) {
	m.w[i*m.stride+j/wordBits] ^= 1 << (uint(j) % wordBits)
}

// row returns the word slice backing row i.
func (m *Dense) row(i int) []uint64 {
	return m.w[i*m.stride : (i+1)*m.stride]
}

// Row returns a copy of row i as a Vec.
func (m *Dense) Row(i int) Vec {
	v := NewVec(m.cols)
	copy(v.w, m.row(i))
	return v
}

// SetRow overwrites row i with the bits of v (length must equal Cols).
func (m *Dense) SetRow(i int, v Vec) {
	if v.n != m.cols {
		panic("gf2: SetRow length mismatch")
	}
	copy(m.row(i), v.w)
}

// Col returns a copy of column j as a Vec.
func (m *Dense) Col(j int) Vec {
	v := NewVec(m.rows)
	// One word and one shift serve every row: walk down the column at
	// the row stride instead of re-deriving the cell address per probe.
	shift := uint(j) % wordBits
	for i, idx := 0, j/wordBits; i < m.rows; i, idx = i+1, idx+m.stride {
		v.w[i/wordBits] |= (m.w[idx] >> shift & 1) << (uint(i) % wordBits)
	}
	return v
}

// RowXor adds row src into row dst in place (dst ^= src).
func (m *Dense) RowXor(dst, src int) {
	d := m.row(dst)
	s := m.row(src)
	for k := range d {
		d[k] ^= s[k]
	}
}

// SwapRows exchanges rows i and j.
func (m *Dense) SwapRows(i, j int) {
	if i == j {
		return
	}
	a, b := m.row(i), m.row(j)
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// RowWeight returns the number of ones in row i.
func (m *Dense) RowWeight(i int) int {
	t := 0
	for _, w := range m.row(i) {
		t += bits.OnesCount64(w)
	}
	return t
}

// ColWeight returns the number of ones in column j.
func (m *Dense) ColWeight(j int) int {
	t := 0
	for i := 0; i < m.rows; i++ {
		if m.At(i, j) {
			t++
		}
	}
	return t
}

// MaxColWeight returns the maximum column weight (the "column sparsity"
// S used throughout the paper).
func (m *Dense) MaxColWeight() int {
	best := 0
	for j := 0; j < m.cols; j++ {
		if w := m.ColWeight(j); w > best {
			best = w
		}
	}
	return best
}

// MaxRowWeight returns the maximum row weight.
func (m *Dense) MaxRowWeight() int {
	best := 0
	for i := 0; i < m.rows; i++ {
		if w := m.RowWeight(i); w > best {
			best = w
		}
	}
	return best
}

// NNZ returns the total number of ones in the matrix.
func (m *Dense) NNZ() int {
	t := 0
	for _, w := range m.w {
		t += bits.OnesCount64(w)
	}
	return t
}

// Clone returns an independent copy of m.
func (m *Dense) Clone() *Dense {
	c := &Dense{rows: m.rows, cols: m.cols, stride: m.stride, w: make([]uint64, len(m.w))}
	copy(c.w, m.w)
	return c
}

// Equal reports whether m and other have identical shape and entries.
func (m *Dense) Equal(other *Dense) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i := range m.w {
		if m.w[i] != other.w[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every entry is zero.
func (m *Dense) IsZero() bool {
	for _, w := range m.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// MulVec returns m·v (length Rows) for a vector v of length Cols.
func (m *Dense) MulVec(v Vec) Vec {
	if v.n != m.cols {
		panic(fmt.Sprintf("gf2: MulVec dimension mismatch: %d cols vs %d vec", m.cols, v.n))
	}
	out := NewVec(m.rows)
	for i := 0; i < m.rows; i++ {
		var acc uint64
		r := m.row(i)
		for k, w := range v.w {
			acc ^= r[k] & w
		}
		if bits.OnesCount64(acc)%2 == 1 {
			out.Set(i, true)
		}
	}
	return out
}

// MulVecInto computes out = m·v without allocating. out must have length
// Rows and v length Cols.
func (m *Dense) MulVecInto(out, v Vec) {
	if v.n != m.cols || out.n != m.rows {
		panic(fmt.Sprintf("gf2: MulVecInto dimension mismatch: %dx%d by %d into %d",
			m.rows, m.cols, v.n, out.n))
	}
	out.Zero()
	for i := 0; i < m.rows; i++ {
		var acc uint64
		r := m.row(i)
		for k, w := range v.w {
			acc ^= r[k] & w
		}
		if bits.OnesCount64(acc)%2 == 1 {
			out.Set(i, true)
		}
	}
}

// CopyFrom overwrites m with the entries of other. Shapes must match.
func (m *Dense) CopyFrom(other *Dense) {
	if m.rows != other.rows || m.cols != other.cols {
		panic("gf2: CopyFrom shape mismatch")
	}
	copy(m.w, other.w)
}

// SubmatrixInto copies the rectangle rows [r0,r1) × cols [c0,c1) into
// out, which must already have shape (r1-r0)×(c1-c0). The allocation-free
// variant of Submatrix. Each output word is two source words shifted
// together.
func (m *Dense) SubmatrixInto(out *Dense, r0, r1, c0, c1 int) {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic("gf2: SubmatrixInto out of range")
	}
	if out.rows != r1-r0 || out.cols != c1-c0 {
		panic("gf2: SubmatrixInto shape mismatch")
	}
	w0, sh := c0/wordBits, uint(c0)%wordBits
	var last uint64 = ^uint64(0) // bits of the last word inside the rectangle
	if rem := uint(c1-c0) % wordBits; rem != 0 {
		last = 1<<rem - 1
	}
	for i := r0; i < r1; i++ {
		src := m.row(i)[w0:]
		dst := out.row(i - r0)
		for k := range dst {
			w := src[k] >> sh
			if sh != 0 && k+1 < len(src) {
				w |= src[k+1] << (wordBits - sh)
			}
			dst[k] = w
		}
		if len(dst) > 0 {
			dst[len(dst)-1] &= last
		}
	}
}

// Mul returns the matrix product m·b.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("gf2: Mul dimension mismatch: %dx%d by %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	// Row-by-row accumulation: for each set bit k of row i of m, XOR row
	// k of b into row i of out. This is the standard "method of four
	// Russians lite" word-parallel product.
	for i := 0; i < m.rows; i++ {
		dst := out.row(i)
		r := m.row(i)
		for wi, w := range r {
			for w != 0 {
				k := wi*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				src := b.row(k)
				for t := range dst {
					dst[t] ^= src[t]
				}
			}
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		r := m.row(i)
		for wi, w := range r {
			for w != 0 {
				j := wi*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				out.Set(j, i, true)
			}
		}
	}
	return out
}

// HStack returns the horizontal concatenation [m | b]. Row counts must match.
func HStack(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return NewDense(0, 0)
	}
	rows := ms[0].rows
	cols := 0
	for _, a := range ms {
		if a.rows != rows {
			panic("gf2: HStack row mismatch")
		}
		cols += a.cols
	}
	out := NewDense(rows, cols)
	off := 0
	for _, a := range ms {
		for i := 0; i < rows; i++ {
			r := a.row(i)
			for wi, w := range r {
				for w != 0 {
					j := wi*wordBits + bits.TrailingZeros64(w)
					w &= w - 1
					out.Set(i, off+j, true)
				}
			}
		}
		off += a.cols
	}
	return out
}

// VStack returns the vertical concatenation of the given matrices.
func VStack(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return NewDense(0, 0)
	}
	cols := ms[0].cols
	rows := 0
	for _, a := range ms {
		if a.cols != cols {
			panic("gf2: VStack col mismatch")
		}
		rows += a.rows
	}
	out := NewDense(rows, cols)
	off := 0
	for _, a := range ms {
		for i := 0; i < a.rows; i++ {
			copy(out.row(off+i), a.row(i))
		}
		off += a.rows
	}
	return out
}

// Kron returns the Kronecker product m ⊗ b.
func Kron(a, b *Dense) *Dense {
	out := NewDense(a.rows*b.rows, a.cols*b.cols)
	for i := 0; i < a.rows; i++ {
		r := a.row(i)
		for wi, w := range r {
			for w != 0 {
				j := wi*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				for bi := 0; bi < b.rows; bi++ {
					br := b.row(bi)
					for bwi, bw := range br {
						for bw != 0 {
							bj := bwi*wordBits + bits.TrailingZeros64(bw)
							bw &= bw - 1
							out.Set(i*b.rows+bi, j*b.cols+bj, true)
						}
					}
				}
			}
		}
	}
	return out
}

// Submatrix returns a copy of the rectangle rows [r0,r1) × cols [c0,c1).
func (m *Dense) Submatrix(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic("gf2: Submatrix out of range")
	}
	out := NewDense(r1-r0, c1-c0)
	m.SubmatrixInto(out, r0, r1, c0, c1)
	return out
}

// String renders the matrix as newline-separated 0/1 rows.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteByte('\n')
		}
		for j := 0; j < m.cols; j++ {
			if m.At(i, j) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
	}
	return sb.String()
}
