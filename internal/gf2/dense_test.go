package gf2

import (
	"math/rand/v2"
	"testing"
)

func randDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.IntN(2) == 1 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

func TestDenseBasicOps(t *testing.T) {
	m := NewDense(3, 70)
	m.Set(0, 0, true)
	m.Set(1, 65, true)
	m.Set(2, 69, true)
	if !m.At(1, 65) || m.At(1, 64) {
		t.Error("At/Set broken across word boundary")
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", m.NNZ())
	}
	m.Flip(1, 65)
	if m.At(1, 65) {
		t.Error("Flip did not clear")
	}
}

func TestDenseMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 20; trial++ {
		a := randDense(rng, 2+rng.IntN(20), 2+rng.IntN(20))
		b := randDense(rng, a.Cols(), 2+rng.IntN(20))
		c := randDense(rng, b.Cols(), 2+rng.IntN(20))
		lhs := a.Mul(b).Mul(c)
		rhs := a.Mul(b.Mul(c))
		if !lhs.Equal(rhs) {
			t.Fatal("matrix multiplication not associative")
		}
	}
}

func TestDenseMulVecAgreesWithMul(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 20; trial++ {
		a := randDense(rng, 2+rng.IntN(30), 2+rng.IntN(90))
		v := randVec(rng, a.Cols())
		// Treat v as a column matrix.
		vm := NewDense(a.Cols(), 1)
		for i := 0; i < v.Len(); i++ {
			if v.Get(i) {
				vm.Set(i, 0, true)
			}
		}
		want := a.Mul(vm)
		got := a.MulVec(v)
		for i := 0; i < a.Rows(); i++ {
			if got.Get(i) != want.At(i, 0) {
				t.Fatal("MulVec disagrees with Mul")
			}
		}
	}
}

func TestDenseTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	for trial := 0; trial < 20; trial++ {
		a := randDense(rng, 1+rng.IntN(40), 1+rng.IntN(80))
		if !a.Transpose().Transpose().Equal(a) {
			t.Fatal("transpose is not an involution")
		}
	}
}

func TestDenseTransposeProduct(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	for trial := 0; trial < 20; trial++ {
		a := randDense(rng, 2+rng.IntN(15), 2+rng.IntN(15))
		b := randDense(rng, a.Cols(), 2+rng.IntN(15))
		// (AB)ᵀ = BᵀAᵀ
		lhs := a.Mul(b).Transpose()
		rhs := b.Transpose().Mul(a.Transpose())
		if !lhs.Equal(rhs) {
			t.Fatal("(AB)ᵀ != BᵀAᵀ")
		}
	}
}

func TestEyeIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 20))
	a := randDense(rng, 12, 12)
	if !Eye(12).Mul(a).Equal(a) || !a.Mul(Eye(12)).Equal(a) {
		t.Error("Eye is not a multiplicative identity")
	}
}

func TestHStackVStack(t *testing.T) {
	a := FromRows([][]int{{1, 0}, {0, 1}})
	b := FromRows([][]int{{1, 1}, {0, 0}})
	h := HStack(a, b)
	if h.Rows() != 2 || h.Cols() != 4 {
		t.Fatalf("HStack shape %dx%d", h.Rows(), h.Cols())
	}
	if !h.At(0, 2) || !h.At(0, 3) || h.At(1, 2) {
		t.Error("HStack contents wrong")
	}
	v := VStack(a, b)
	if v.Rows() != 4 || v.Cols() != 2 {
		t.Fatalf("VStack shape %dx%d", v.Rows(), v.Cols())
	}
	if !v.At(2, 0) || !v.At(2, 1) || v.At(3, 0) {
		t.Error("VStack contents wrong")
	}
}

func TestKronIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	a := randDense(rng, 4, 5)
	k := Kron(Eye(3), a)
	if k.Rows() != 12 || k.Cols() != 15 {
		t.Fatalf("Kron shape %dx%d", k.Rows(), k.Cols())
	}
	// I⊗A is block diagonal with copies of A.
	for b := 0; b < 3; b++ {
		if !k.Submatrix(b*4, (b+1)*4, b*5, (b+1)*5).Equal(a) {
			t.Fatal("Kron diagonal block mismatch")
		}
	}
	// Off-diagonal blocks are zero.
	if !k.Submatrix(0, 4, 5, 10).IsZero() {
		t.Fatal("Kron off-diagonal block nonzero")
	}
}

func TestKronMixedProduct(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD)
	rng := rand.New(rand.NewPCG(23, 24))
	a := randDense(rng, 3, 4)
	b := randDense(rng, 2, 5)
	c := randDense(rng, 4, 3)
	d := randDense(rng, 5, 2)
	lhs := Kron(a, b).Mul(Kron(c, d))
	rhs := Kron(a.Mul(c), b.Mul(d))
	if !lhs.Equal(rhs) {
		t.Error("Kronecker mixed-product property violated")
	}
}

func TestColRowWeights(t *testing.T) {
	m := FromRows([][]int{
		{1, 1, 0, 1},
		{0, 1, 0, 1},
		{0, 1, 0, 0},
	})
	if m.ColWeight(1) != 3 || m.ColWeight(2) != 0 {
		t.Error("ColWeight wrong")
	}
	if m.MaxColWeight() != 3 {
		t.Errorf("MaxColWeight = %d, want 3", m.MaxColWeight())
	}
	if m.RowWeight(0) != 3 || m.MaxRowWeight() != 3 {
		t.Error("RowWeight wrong")
	}
}

func TestSubmatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	m := randDense(rng, 9, 13)
	top := m.Submatrix(0, 4, 0, 13)
	bot := m.Submatrix(4, 9, 0, 13)
	if !VStack(top, bot).Equal(m) {
		t.Error("vertical submatrix roundtrip failed")
	}
	left := m.Submatrix(0, 9, 0, 6)
	right := m.Submatrix(0, 9, 6, 13)
	if !HStack(left, right).Equal(m) {
		t.Error("horizontal submatrix roundtrip failed")
	}
}

func TestColMatchesAt(t *testing.T) {
	// Shapes on and off the 64-bit word boundary in both dimensions: Col
	// strides through the packed words instead of probing At.
	rng := rand.New(rand.NewPCG(21, 22))
	for _, shape := range [][2]int{{1, 1}, {3, 70}, {63, 65}, {64, 64}, {65, 63}, {130, 129}, {200, 7}} {
		m := randDense(rng, shape[0], shape[1])
		for j := 0; j < m.Cols(); j++ {
			col := m.Col(j)
			if col.Len() != m.Rows() {
				t.Fatalf("%v: Col(%d) has length %d", shape, j, col.Len())
			}
			for i := 0; i < m.Rows(); i++ {
				if col.Get(i) != m.At(i, j) {
					t.Fatalf("%v: Col(%d)[%d] = %v, At = %v", shape, j, i, col.Get(i), m.At(i, j))
				}
			}
			if col.Weight() != m.ColWeight(j) {
				t.Fatalf("%v: Col(%d) weight %d, ColWeight %d (stray bits past Rows?)", shape, j, col.Weight(), m.ColWeight(j))
			}
		}
	}
}

func TestCSCFromDenseMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	for _, shape := range [][2]int{{3, 70}, {65, 63}, {40, 129}} {
		m := randDense(rng, shape[0], shape[1])
		for j := 0; j < shape[1]; j += 3 {
			for i := 0; i < shape[0]; i++ {
				m.Set(i, j, false) // empty columns
			}
		}
		s := CSCFromDense(m)
		for j := 0; j < m.Cols(); j++ {
			want := m.Col(j).Ones()
			got := s.ColSpan(j)
			if len(got) != len(want) {
				t.Fatalf("%v: column %d support %v, want %v", shape, j, got, want)
			}
			for k := range want {
				if int(got[k]) != want[k] {
					t.Fatalf("%v: column %d support %v, want %v", shape, j, got, want)
				}
			}
		}
	}
}
