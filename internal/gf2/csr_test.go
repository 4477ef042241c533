package gf2

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func randomDense(rng *rand.Rand, m, n int, p float64) *Dense {
	d := NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				d.Set(i, j, true)
			}
		}
	}
	return d
}

func randomVec(rng *rand.Rand, n int, p float64) Vec {
	v := NewVec(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			v.Set(i, true)
		}
	}
	return v
}

func TestCSCFromSupports(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rows     int
		supports [][]int
		want     [][]int32 // nil: the constructor must panic
	}{
		{"unsorted supports come out ascending", 5, [][]int{{4, 0, 2}, {3, 1}}, [][]int32{{0, 2, 4}, {1, 3}}},
		{"empty columns", 3, [][]int{nil, {2}, {}, nil}, [][]int32{{}, {2}, {}, {}}},
		{"no columns", 3, nil, [][]int32{}},
		{"full column", 3, [][]int{{2, 1, 0}}, [][]int32{{0, 1, 2}}},
		{"repeated index", 5, [][]int{{1}, {3, 0, 3}}, nil},
		{"negative index", 5, [][]int{{0, -1}}, nil},
		{"index = rows", 5, [][]int{{5}}, nil},
		{"index past int32", 5, [][]int{{1 << 32}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r != nil) != (tc.want == nil) {
					t.Fatalf("panic = %v, want panic: %v", r, tc.want == nil)
				}
			}()
			c := CSCFromSupports(tc.rows, tc.supports)
			if c.Rows() != tc.rows || c.Cols() != len(tc.want) {
				t.Fatalf("shape %d×%d, want %d×%d", c.Rows(), c.Cols(), tc.rows, len(tc.want))
			}
			nnz := 0
			for j, want := range tc.want {
				if !slices.Equal(c.ColSpan(j), want) {
					t.Errorf("column %d = %v, want %v", j, c.ColSpan(j), want)
				}
				nnz += len(want)
			}
			if c.NNZ() != nnz {
				t.Errorf("NNZ = %d, want %d", c.NNZ(), nnz)
			}
		})
	}
	// int32 supports (the spans of another matrix) take the same path,
	// and are copied: the caller's slice keeps its order.
	in := []int32{4, 0, 2}
	c := CSCFromSupports(5, [][]int32{in})
	if !slices.Equal(c.ColSpan(0), []int32{0, 2, 4}) || !slices.Equal(in, []int32{4, 0, 2}) {
		t.Errorf("int32 supports: column 0 = %v, caller's slice now %v", c.ColSpan(0), in)
	}
}

func TestSparseAtAndSetColSupport(t *testing.T) {
	c := CSCFromSupports(5, [][]int{nil, {4, 0, 2}, nil})
	d := c.ToDense()
	if !d.At(0, 1) || !d.At(2, 1) || !d.At(4, 1) || d.At(1, 1) || d.At(0, 0) {
		t.Error("At wrong after CSCFromSupports")
	}
	if c.ColWeight(1) != 3 || c.ColWeight(0) != 0 {
		t.Error("ColWeight wrong")
	}
}

func TestSparseDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	for trial := 0; trial < 30; trial++ {
		m := randDense(rng, 1+rng.IntN(30), 1+rng.IntN(30))
		s := CSCFromDense(m)
		if !s.ToDense().Equal(m) {
			t.Fatal("sparse/dense roundtrip failed")
		}
		if s.NNZ() != m.NNZ() {
			t.Fatal("NNZ mismatch")
		}
		if s.MaxColWeight() != m.MaxColWeight() {
			t.Fatal("MaxColWeight mismatch")
		}
	}
}

func TestSparseMulVecAgreesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	for trial := 0; trial < 30; trial++ {
		m := randDense(rng, 1+rng.IntN(40), 1+rng.IntN(40))
		s := CSCFromDense(m)
		v := randVec(rng, m.Cols())
		if !s.MulVec(v).Equal(m.MulVec(v)) {
			t.Fatal("CSC.MulVec disagrees with dense")
		}
	}
}

func TestSparseXorColInto(t *testing.T) {
	m := FromRows([][]int{
		{1, 0},
		{0, 1},
		{1, 1},
	})
	s := CSCFromDense(m)
	v := NewVec(3)
	s.XorColInto(v, 0)
	if !v.Equal(VecFromInts([]int{1, 0, 1})) {
		t.Errorf("after xor col 0: %v", v)
	}
	s.XorColInto(v, 1)
	if !v.Equal(VecFromInts([]int{1, 1, 0})) {
		t.Errorf("after xor col 1: %v", v)
	}
	s.XorColInto(v, 0) // xor twice cancels
	if !v.Equal(VecFromInts([]int{0, 1, 1})) {
		t.Errorf("after second xor col 0: %v", v)
	}
}

// TestCSRMatchesDense holds both CSR construction paths — the word scan
// and the transpose of the CSC — to the dense matrix's rows.
func TestCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 20; trial++ {
		m, n := 1+rng.IntN(40), 1+rng.IntN(40)
		d := randomDense(rng, m, n, 0.2)
		for _, c := range []*CSR{CSRFromDense(d), CSRFromCSC(CSCFromDense(d))} {
			if c.Rows() != m || c.Cols() != n || c.NNZ() != d.NNZ() {
				t.Fatalf("shape/nnz mismatch")
			}
			for i := 0; i < m; i++ {
				sup := d.Row(i).Ones()
				span := c.RowSpan(i)
				if len(sup) != len(span) || c.RowWeight(i) != len(sup) {
					t.Fatalf("row %d: weight %d vs %d", i, len(span), len(sup))
				}
				for k := range sup {
					if int(span[k]) != sup[k] {
						t.Fatalf("row %d entry %d: %d vs %d", i, k, span[k], sup[k])
					}
				}
			}
			if c.MaxRowWeight() != d.MaxRowWeight() {
				t.Fatal("MaxRowWeight mismatch")
			}
			x := randomVec(rng, n, 0.3)
			if !c.MulVec(x).Equal(d.MulVec(x)) {
				t.Fatal("CSR MulVec disagrees with Dense")
			}
		}
	}
}

func TestXorColInto(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	d := randomDense(rng, 30, 20, 0.25)
	c := CSCFromDense(d)
	for j := 0; j < 20; j++ {
		v := randomVec(rng, 30, 0.5)
		want := v.Clone()
		for i := 0; i < 30; i++ {
			if d.At(i, j) {
				want.Flip(i)
			}
		}
		c.XorColInto(v, j)
		if !v.Equal(want) {
			t.Fatalf("XorColInto col %d mismatch", j)
		}
	}
}
