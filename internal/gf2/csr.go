package gf2

import (
	"fmt"
	"math/bits"
	"slices"
)

// CSC (by column) and CSR (by row) are the sparse GF(2) matrices: one
// indices array and one offsets array per axis, the "sparse matrix table
// + non-zero index table" format of the paper's §5.2. Every span is
// strictly ascending and inside the other axis — the constructors
// guarantee it and every kernel relies on it. A matrix is immutable once
// built, so decoder instances share one pointer and hot loops iterate
// contiguous int32 spans with no pointer chasing and no allocation.

// CSC is a column-major sparse GF(2) matrix: the row indices of column j
// occupy indices[offsets[j]:offsets[j+1]].
type CSC struct {
	rows, cols int
	offsets    []int32 // len cols+1
	indices    []int32 // len NNZ
}

// CSCFromSupports builds the rows × len(supports) matrix whose column j
// is set at the row indices supports[j]. The indices are copied and
// sorted; an index that repeats within a column or lies outside
// [0, rows) is a bug in the caller and panics.
func CSCFromSupports[I int | int32](rows int, supports [][]I) *CSC {
	nnz := 0
	for _, sup := range supports {
		nnz += len(sup)
	}
	c := &CSC{
		rows:    rows,
		cols:    len(supports),
		offsets: make([]int32, len(supports)+1),
		indices: make([]int32, 0, nnz),
	}
	for j, sup := range supports {
		for _, i := range sup {
			if i < 0 || int(i) >= rows {
				panic(fmt.Sprintf("gf2: CSCFromSupports: column %d holds index %d, outside [0, %d)", j, i, rows))
			}
			c.indices = append(c.indices, int32(i))
		}
		span := c.indices[c.offsets[j]:]
		slices.Sort(span)
		for k := 1; k < len(span); k++ {
			if span[k] == span[k-1] {
				panic(fmt.Sprintf("gf2: CSCFromSupports: column %d repeats index %d", j, span[k]))
			}
		}
		c.offsets[j+1] = int32(len(c.indices))
	}
	return c
}

// CSCFromDense converts a dense matrix to CSC form: the packed word scan
// of CSRFromDense, transposed.
func CSCFromDense(m *Dense) *CSC {
	r := CSRFromDense(m)
	c := &CSC{rows: m.rows, cols: m.cols}
	c.offsets, c.indices = transposeSpans(r.offsets, r.indices, m.cols)
	return c
}

// transposeSpans turns the spans of one axis into the spans of the other
// (minor is the other axis's length): a counting pass, prefix sums, then
// a placement pass. Spans are visited in ascending order, so each output
// span comes out ascending.
func transposeSpans(offsets, indices []int32, minor int) (tOffsets, tIndices []int32) {
	tOffsets = make([]int32, minor+1)
	tIndices = make([]int32, len(indices))
	for _, i := range indices {
		tOffsets[i+1]++
	}
	for i := 0; i < minor; i++ {
		tOffsets[i+1] += tOffsets[i]
	}
	next := slices.Clone(tOffsets[:minor])
	for j := 0; j+1 < len(offsets); j++ {
		for _, i := range indices[offsets[j]:offsets[j+1]] {
			tIndices[next[i]] = int32(j)
			next[i]++
		}
	}
	return tOffsets, tIndices
}

// ToDense converts to dense form.
func (c *CSC) ToDense() *Dense {
	m := NewDense(c.rows, c.cols)
	for j := 0; j < c.cols; j++ {
		for _, i := range c.ColSpan(j) {
			m.Set(int(i), j, true)
		}
	}
	return m
}

// Rows returns the number of rows.
func (c *CSC) Rows() int { return c.rows }

// Cols returns the number of columns.
func (c *CSC) Cols() int { return c.cols }

// NNZ returns the number of nonzeros.
func (c *CSC) NNZ() int { return len(c.indices) }

// ColSpan returns the sorted nonzero row indices of column j as a
// subslice of the shared indices array: no allocation, must not be
// modified.
func (c *CSC) ColSpan(j int) []int32 {
	return c.indices[c.offsets[j]:c.offsets[j+1]]
}

// ColWeight returns the number of nonzeros in column j.
func (c *CSC) ColWeight(j int) int { return int(c.offsets[j+1] - c.offsets[j]) }

// MaxColWeight returns the maximum column weight.
func (c *CSC) MaxColWeight() int {
	best := 0
	for j := 0; j < c.cols; j++ {
		if w := c.ColWeight(j); w > best {
			best = w
		}
	}
	return best
}

// XorColInto flips the bits of v at the support of column j.
func (c *CSC) XorColInto(v Vec, j int) {
	for _, i := range c.ColSpan(j) {
		v.Flip(int(i))
	}
}

// MulVecInto computes out = c·x without allocating. out must have length
// Rows and x length Cols.
func (c *CSC) MulVecInto(out, x Vec) {
	if x.n != c.cols || out.n != c.rows {
		panic("gf2: CSC.MulVecInto dimension mismatch")
	}
	out.Zero()
	for wi, w := range x.w {
		for w != 0 {
			j := wi*wordBits + bits.TrailingZeros64(w)
			w &= w - 1
			for _, i := range c.ColSpan(j) {
				out.Flip(int(i))
			}
		}
	}
}

// MulVec returns c·x.
func (c *CSC) MulVec(x Vec) Vec {
	out := NewVec(c.rows)
	c.MulVecInto(out, x)
	return out
}

// CSR is a row-major sparse GF(2) matrix: the column indices of row i
// occupy indices[offsets[i]:offsets[i+1]].
type CSR struct {
	rows, cols int
	offsets    []int32
	indices    []int32
}

// CSRFromCSC returns the row view of the same matrix (the counting
// transpose, no dense round trip).
func CSRFromCSC(c *CSC) *CSR {
	r := &CSR{rows: c.rows, cols: c.cols}
	r.offsets, r.indices = transposeSpans(c.offsets, c.indices, c.rows)
	return r
}

// CSRFromDense converts a dense matrix to CSR form with a packed word
// scan per row.
func CSRFromDense(m *Dense) *CSR {
	c := &CSR{
		rows:    m.rows,
		cols:    m.cols,
		offsets: make([]int32, m.rows+1),
		indices: make([]int32, 0, m.NNZ()),
	}
	for i := 0; i < m.rows; i++ {
		for wi, w := range m.row(i) {
			for w != 0 {
				j := wi*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				c.indices = append(c.indices, int32(j))
			}
		}
		c.offsets[i+1] = int32(len(c.indices))
	}
	return c
}

// Rows returns the number of rows.
func (c *CSR) Rows() int { return c.rows }

// Cols returns the number of columns.
func (c *CSR) Cols() int { return c.cols }

// NNZ returns the number of nonzeros.
func (c *CSR) NNZ() int { return len(c.indices) }

// RowSpan returns the sorted nonzero column indices of row i as a
// subslice of the shared indices array: no allocation, must not be
// modified.
func (c *CSR) RowSpan(i int) []int32 {
	return c.indices[c.offsets[i]:c.offsets[i+1]]
}

// RowWeight returns the number of nonzeros in row i.
func (c *CSR) RowWeight(i int) int { return int(c.offsets[i+1] - c.offsets[i]) }

// MaxRowWeight returns the maximum row weight.
func (c *CSR) MaxRowWeight() int {
	best := 0
	for i := 0; i < c.rows; i++ {
		if w := c.RowWeight(i); w > best {
			best = w
		}
	}
	return best
}

// MulVecInto computes out = c·x via per-row parity without allocating.
func (c *CSR) MulVecInto(out, x Vec) {
	if x.n != c.cols || out.n != c.rows {
		panic("gf2: CSR.MulVecInto dimension mismatch")
	}
	out.Zero()
	for i := 0; i < c.rows; i++ {
		par := false
		for _, j := range c.RowSpan(i) {
			if x.Get(int(j)) {
				par = !par
			}
		}
		if par {
			out.Set(i, true)
		}
	}
}

// MulVec returns c·x.
func (c *CSR) MulVec(x Vec) Vec {
	out := NewVec(c.rows)
	c.MulVecInto(out, x)
	return out
}
