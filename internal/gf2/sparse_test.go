package gf2

import (
	"math/rand/v2"
	"testing"
)

func TestSparseDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	for trial := 0; trial < 30; trial++ {
		m := randDense(rng, 1+rng.IntN(30), 1+rng.IntN(30))
		s := SparseFromDense(m)
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
		s := SparseFromDense(m)
		v := randVec(rng, m.Cols())
		if !s.MulVec(v).Equal(m.MulVec(v)) {
			t.Fatal("SparseCols.MulVec disagrees with dense")
		}
	}
}

func TestSparseXorColInto(t *testing.T) {
	m := FromRows([][]int{
		{1, 0},
		{0, 1},
		{1, 1},
	})
	s := SparseFromDense(m)
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

func TestSparseAtAndSetColSupport(t *testing.T) {
	s := NewSparseCols(5, 3)
	s.SetColSupport(1, []int{4, 0, 2})
	if !s.At(0, 1) || !s.At(2, 1) || !s.At(4, 1) || s.At(1, 1) || s.At(0, 0) {
		t.Error("At wrong after SetColSupport")
	}
	sup := s.ColSupport(1)
	if len(sup) != 3 || sup[0] != 0 || sup[2] != 4 {
		t.Errorf("ColSupport not sorted: %v", sup)
	}
	if s.ColWeight(1) != 3 || s.ColWeight(0) != 0 {
		t.Error("ColWeight wrong")
	}
}

func TestSparseRowsMulVecAgreesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 46))
	for trial := 0; trial < 30; trial++ {
		m := randDense(rng, 1+rng.IntN(40), 1+rng.IntN(40))
		s := SparseRowsFromDense(m)
		v := randVec(rng, m.Cols())
		if !s.MulVec(v).Equal(m.MulVec(v)) {
			t.Fatal("SparseRows.MulVec disagrees with dense")
		}
		if s.MaxRowWeight() != m.MaxRowWeight() {
			t.Fatal("MaxRowWeight mismatch")
		}
	}
}

func TestPermValidateRejectsBad(t *testing.T) {
	if err := Perm([]int{0, 0, 2}).Validate(); err == nil {
		t.Error("duplicate entry accepted")
	}
	if err := Perm([]int{0, 3, 1}).Validate(); err == nil {
		t.Error("out-of-range entry accepted")
	}
}

func TestPermuteColsRows(t *testing.T) {
	m := FromRows([][]int{
		{1, 0, 0},
		{0, 1, 0},
	})
	p := Perm([]int{2, 0, 1})
	pc := m.PermuteCols(p)
	// output col 0 = input col 2 (zero), col 1 = input col 0, col 2 = input col 1.
	want := FromRows([][]int{
		{0, 1, 0},
		{0, 0, 1},
	})
	if !pc.Equal(want) {
		t.Errorf("PermuteCols:\n%v\nwant\n%v", pc, want)
	}
}

func TestPermApplyToSlice(t *testing.T) {
	p := Perm([]int{2, 0, 1})
	out := p.ApplyToSlice([]float64{10, 20, 30})
	if out[0] != 30 || out[1] != 10 || out[2] != 20 {
		t.Errorf("ApplyToSlice = %v", out)
	}
}
