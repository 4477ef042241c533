package code

import (
	"testing"

	"vegapunk/internal/gf2"
)

var wantHP = []struct {
	name       string
	n, k, rows int // rows = HX row count, matching Table 2's check matrix rows
}{
	{"HP [[162,2,4]]", 162, 2, 81},
	{"HP [[338,2,4]]", 338, 2, 169},
	{"HP [[288,12,6]]", 288, 12, 144},
	{"HP [[744,20,6]]", 744, 20, 372},
	{"HP [[882,48,8]]", 882, 48, 441},
	{"HP [[1488,30,7]]", 1488, 30, 744},
}

func TestHPRegistryParameters(t *testing.T) {
	if len(HPRegistry) != len(wantHP) {
		t.Fatalf("registry has %d codes, want %d", len(HPRegistry), len(wantHP))
	}
	for i, w := range wantHP {
		if testing.Short() && w.n > 400 {
			continue
		}
		c, err := NewHPByIndex(i)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if c.N != w.n || c.K != w.k {
			t.Errorf("%s: got [[%d,%d]], want [[%d,%d]]", w.name, c.N, c.K, w.n, w.k)
		}
		if c.HX.Rows() != w.rows {
			t.Errorf("%s: HX rows %d, want %d", w.name, c.HX.Rows(), w.rows)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestHPBlockDiagonalStructure(t *testing.T) {
	// The right part of HX, I_m1 ⊗ H2ᵀ, must be block diagonal with
	// m1 copies of H2ᵀ — the property the decoupler exploits (§4.2).
	h1 := RingCode(5)
	h2 := RingCode(4)
	c, err := NewHP("toy", h1, h2, 4)
	if err != nil {
		t.Fatal(err)
	}
	n1, m1 := 5, 5
	n2, m2 := 4, 4
	right := c.HX.Submatrix(0, m1*n2, n1*n2, n1*n2+m1*m2)
	h2t := h2.Transpose()
	for b := 0; b < m1; b++ {
		blk := right.Submatrix(b*n2, (b+1)*n2, b*m2, (b+1)*m2)
		if !blk.Equal(h2t) {
			t.Fatalf("block %d is not H2ᵀ", b)
		}
	}
	// Off-diagonal zero.
	if !right.Submatrix(0, n2, m2, 2*m2).IsZero() {
		t.Error("off-diagonal block of I⊗H2ᵀ nonzero")
	}
}

func TestHPKFormula(t *testing.T) {
	// n = n1·n2 + m1·m2 and k = k1·k2 + k1ᵀ·k2ᵀ; for square circulants
	// m = n and k1ᵀ = k1.
	cases := []struct {
		l1 int
		a1 []int
		l2 int
		a2 []int
	}{
		{6, []int{0, 1}, 7, []int{0, 1}},
		{12, []int{0, 3}, 12, []int{0, 1, 2}},
		{5, []int{0, 1}, 5, []int{0, 1}},
	}
	for _, cse := range cases {
		k1 := CirculantDim(cse.l1, cse.a1)
		k2 := CirculantDim(cse.l2, cse.a2)
		c, err := NewHP("t", Circulant(cse.l1, cse.a1), Circulant(cse.l2, cse.a2), 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 * cse.l1 * cse.l2; c.N != want {
			t.Errorf("HP n = %d, want %d", c.N, want)
		}
		if want := 2 * k1 * k2; c.K != want {
			t.Errorf("HP k = %d, want %d", c.K, want)
		}
	}
}

func TestHPColumnSparsity(t *testing.T) {
	c, err := NewHPByIndex(0) // ring(9) x ring(9)
	if err != nil {
		t.Fatal(err)
	}
	// Ring code HP: every column of HX has weight ≤ 2 (paper Table 2
	// sparsity 2 for [[162,2,4]]).
	if got := c.HX.MaxColWeight(); got != 2 {
		t.Errorf("max column weight %d, want 2", got)
	}
}

func TestHPLogicalsToric(t *testing.T) {
	c, err := NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	lz := c.LogicalZ()
	if lz.Rows() != 2 {
		t.Fatalf("expected 2 logical Z, got %d", lz.Rows())
	}
	if !c.HX.Mul(lz.Transpose()).IsZero() {
		t.Error("logical Z fails commutation")
	}
	if !outsideRowSpace(c.HZ, lz) {
		t.Error("logical Z is a stabilizer, or the logicals are dependent")
	}
}

var _ = gf2.Eye // keep import if assertions change
