package gf2

import (
	"testing"
)

// FuzzSolveConsistency: for any matrix bits and error vector, Solve on
// the induced consistent system must return a solution.
func FuzzSolveConsistency(f *testing.F) {
	f.Add(uint16(0xBEEF), uint8(5), uint8(9))
	f.Add(uint16(0x1234), uint8(3), uint8(3))
	f.Add(uint16(0), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint16, rRaw, cRaw uint8) {
		r := int(rRaw%12) + 1
		c := int(cRaw%12) + 1
		m := NewDense(r, c)
		state := uint32(seed) + 1
		next := func() uint32 {
			state ^= state << 13
			state ^= state >> 17
			state ^= state << 5
			return state
		}
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if next()%3 == 0 {
					m.Set(i, j, true)
				}
			}
		}
		x0 := NewVec(c)
		for j := 0; j < c; j++ {
			if next()%2 == 0 {
				x0.Set(j, true)
			}
		}
		b := m.MulVec(x0)
		x, err := m.Solve(b)
		if err != nil {
			t.Fatalf("consistent system unsolvable: %v", err)
		}
		if !m.MulVec(x).Equal(b) {
			t.Fatal("Solve returned a non-solution")
		}
		// Rank-nullity must hold as well.
		if m.Rank()+m.NullSpace().Rows() != c {
			t.Fatal("rank-nullity violated")
		}
	})
}

// fillDense populates an r×c dense matrix from fuzzer bytes, one
// deterministic bit per entry.
func fillDense(m *Dense, r, c int, data []byte) {
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			idx := (i*c + j) % len(data)
			if data[idx]>>(uint(i*3+j)%8)&1 == 1 {
				m.Set(i, j, true)
			}
		}
	}
}

// FuzzCSRRoundTrip: both CSR construction paths (from dense, by
// transposing the CSC) must agree exactly, and the flat layout must
// reconstruct the original dense matrix bit for bit.
func FuzzCSRRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0xFF})
	f.Add([]byte{0x00, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		r := int(data[0]%20) + 1
		c := int(data[1]%20) + 1
		m := NewDense(r, c)
		fillDense(m, r, c, data)

		fromDense := CSRFromDense(m)
		fromCols := CSRFromCSC(CSCFromDense(m))
		for _, cs := range []*CSR{fromDense, fromCols} {
			if cs.Rows() != r || cs.Cols() != c || cs.NNZ() != m.NNZ() {
				t.Fatalf("CSR shape/NNZ mismatch: got %dx%d nnz=%d, want %dx%d nnz=%d",
					cs.Rows(), cs.Cols(), cs.NNZ(), r, c, m.NNZ())
			}
		}
		back := NewDense(r, c)
		for i := 0; i < r; i++ {
			a, b := fromDense.RowSpan(i), fromCols.RowSpan(i)
			if len(a) != len(b) {
				t.Fatalf("row %d span lengths disagree: %d %d", i, len(a), len(b))
			}
			prev := int32(-1)
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("row %d entry %d disagrees: %d %d", i, k, a[k], b[k])
				}
				if a[k] <= prev {
					t.Fatalf("row %d span not strictly ascending at %d", i, k)
				}
				prev = a[k]
				back.Set(i, int(a[k]), true)
			}
		}
		if !back.Equal(m) {
			t.Fatal("CSR does not round-trip the dense matrix")
		}
	})
}

// FuzzCSCMatVec: CSC mat-vec and column XOR must match the dense
// reference for arbitrary matrices and input vectors.
func FuzzCSCMatVec(f *testing.F) {
	f.Add([]byte{9, 8, 7, 6, 5})
	f.Add([]byte{0xAA, 0x55})
	f.Add([]byte{0x01, 0x02, 0x04, 0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		r := int(data[0]%20) + 1
		c := int(data[1]%20) + 1
		m := NewDense(r, c)
		fillDense(m, r, c, data)

		x := NewVec(c)
		for j := 0; j < c; j++ {
			if data[(j+2)%len(data)]>>(uint(j)%8)&1 == 1 {
				x.Set(j, true)
			}
		}
		want := m.MulVec(x)

		csc := CSCFromDense(m)
		if csc.NNZ() != m.NNZ() {
			t.Fatalf("CSC NNZ = %d, dense NNZ = %d", csc.NNZ(), m.NNZ())
		}
		out := NewVec(r)
		csc.MulVecInto(out, x)
		if !out.Equal(want) {
			t.Fatal("CSC.MulVecInto disagrees with dense MulVec")
		}
		if !CSRFromDense(m).MulVec(x).Equal(want) {
			t.Fatal("CSR.MulVec disagrees with dense MulVec")
		}

		// XorColInto over x's support must reproduce the product from zero.
		acc := NewVec(r)
		for j := 0; j < c; j++ {
			if x.Get(j) {
				csc.XorColInto(acc, j)
			}
		}
		if !acc.Equal(want) {
			t.Fatal("XorColInto accumulation disagrees with MulVec")
		}
	})
}

// FuzzTransposeRank: rank is transpose-invariant for arbitrary bit
// patterns.
func FuzzTransposeRank(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0xAA})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := int(data[0]%8) + 1
		c := int(data[len(data)-1]%8) + 1
		m := NewDense(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				idx := (i*c + j) % len(data)
				if data[idx]>>(uint(i+j)%8)&1 == 1 {
					m.Set(i, j, true)
				}
			}
		}
		if m.Rank() != m.Transpose().Rank() {
			t.Fatal("rank not transpose-invariant")
		}
	})
}

// FuzzBitSlicePackRoundTrip: packing any lane set into the bit-sliced
// layout must give PackLanesInto's definition, dst[i] bit l = srcs[l]
// bit i, with the absent lanes zero.
func FuzzBitSlicePackRoundTrip(f *testing.F) {
	f.Add(uint16(0xACE1), uint8(65), uint8(3))
	f.Add(uint16(0x42), uint8(64), uint8(64))
	f.Add(uint16(7), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint16, nRaw, lanesRaw uint8) {
		n := int(nRaw%200) + 1
		lanes := int(lanesRaw%64) + 1
		state := uint32(seed) + 1
		next := func() uint32 {
			state ^= state << 13
			state ^= state >> 17
			state ^= state << 5
			return state
		}
		srcs := make([]Vec, lanes)
		for l := range srcs {
			srcs[l] = NewVec(n)
			for i := 0; i < n; i++ {
				if next()%2 == 0 {
					srcs[l].Set(i, true)
				}
			}
		}
		packed := make([]uint64, n)
		PackLanesInto(packed, srcs)
		for i, w := range packed {
			if lanes < 64 && w>>uint(lanes) != 0 {
				t.Fatalf("packed[%d] has bits beyond lane %d", i, lanes)
			}
			for l := range srcs {
				if w>>uint(l)&1 == 1 != srcs[l].Get(i) {
					t.Fatalf("packed[%d] bit %d != lane %d bit %d", i, l, l, i)
				}
			}
		}
	})
}
