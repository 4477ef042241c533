package code

import (
	"testing"

	"vegapunk/internal/gf2"
)

// steane returns the [[7,1,3]] Steane code (self-dual CSS from the
// Hamming [7,4,3] code), a tiny fixed point for exact assertions.
func steane(t *testing.T) *CSS {
	t.Helper()
	h := gf2.FromRows([][]int{
		{1, 0, 1, 0, 1, 0, 1},
		{0, 1, 1, 0, 0, 1, 1},
		{0, 0, 0, 1, 1, 1, 1},
	})
	c, err := NewCSS("Steane", h.Clone(), h.Clone(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSteaneParameters(t *testing.T) {
	c := steane(t)
	if c.N != 7 || c.K != 1 {
		t.Fatalf("Steane params N=%d K=%d, want 7, 1", c.N, c.K)
	}
	if c.Params() != "[[7,1,3]]" {
		t.Errorf("Params = %q", c.Params())
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewCSSRejectsNonCommuting(t *testing.T) {
	hx := gf2.FromRows([][]int{{1, 1, 0}})
	hz := gf2.FromRows([][]int{{1, 0, 0}})
	if _, err := NewCSS("bad", hx, hz, 1); err == nil {
		t.Error("expected commutation failure")
	}
}

func TestNewCSSRejectsShapeMismatch(t *testing.T) {
	hx := gf2.FromRows([][]int{{1, 1, 0}})
	hz := gf2.FromRows([][]int{{1, 1}})
	if _, err := NewCSS("bad", hx, hz, 1); err == nil {
		t.Error("expected shape mismatch error")
	}
}

func TestLogicalOperators(t *testing.T) {
	c := steane(t)
	lz := c.LogicalZ()
	if lz.Rows() != 1 || lz.Cols() != 7 {
		t.Fatalf("LogicalZ shape %dx%d", lz.Rows(), lz.Cols())
	}
	// Logical Z commutes with all X stabilizers: HX·lzᵀ = 0.
	if !c.HX.Mul(lz.Transpose()).IsZero() {
		t.Error("logical Z does not commute with X stabilizers")
	}
	// Not in the Z stabilizer row space (it is a genuine logical).
	if !outsideRowSpace(c.HZ, lz) {
		t.Error("logical Z lies in stabilizer group")
	}
	// Logical X and Z anticommute in pairs: LX·LZᵀ has full rank k.
	lx := c.LogicalX()
	if got := lx.Mul(lz.Transpose()).Rank(); got != c.K {
		t.Errorf("LX·LZᵀ rank = %d, want %d", got, c.K)
	}
}

// outsideRowSpace reports whether the rows of l are independent of each
// other and of the rows of h: whether an echelon holding h's rows takes
// every row of l.
func outsideRowSpace(h, l *gf2.Dense) bool {
	var e gf2.Echelon
	for i := 0; i < h.Rows(); i++ {
		e.AddRow(h, i)
	}
	for i := 0; i < l.Rows(); i++ {
		if !e.AddRow(l, i) {
			return false
		}
	}
	return true
}

func TestCyclicShiftOrder(t *testing.T) {
	s := CyclicShift(5)
	p := gf2.Eye(5)
	for i := 0; i < 5; i++ {
		p = p.Mul(s)
	}
	if !p.Equal(gf2.Eye(5)) {
		t.Error("S^5 != I for L=5")
	}
	if s.Rank() != 5 {
		t.Error("cyclic shift should be full rank")
	}
}

func TestCirculantRowStructure(t *testing.T) {
	c := Circulant(6, []int{0, 2})
	for i := 0; i < 6; i++ {
		if !c.At(i, i) || !c.At(i, (i+2)%6) {
			t.Fatalf("row %d missing expected ones", i)
		}
		if c.RowWeight(i) != 2 {
			t.Fatalf("row %d weight %d, want 2", i, c.RowWeight(i))
		}
	}
	// Duplicate exponents cancel over GF(2).
	z := Circulant(6, []int{1, 1})
	if !z.IsZero() {
		t.Error("duplicate exponents should cancel")
	}
}

func TestRingCodeDim(t *testing.T) {
	for _, L := range []int{5, 9, 13} {
		if k := CirculantDim(L, []int{0, 1}); k != 1 {
			t.Errorf("ring(%d) dim = %d, want 1", L, k)
		}
	}
}
