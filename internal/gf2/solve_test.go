package gf2

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestRowReduceRank(t *testing.T) {
	m := FromRows([][]int{
		{1, 0, 1},
		{0, 1, 1},
		{1, 1, 0}, // = row0 + row1
	})
	if got := m.Rank(); got != 2 {
		t.Errorf("Rank = %d, want 2", got)
	}
}

func TestRankBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for trial := 0; trial < 30; trial++ {
		r, c := 1+rng.IntN(30), 1+rng.IntN(30)
		m := randDense(rng, r, c)
		rank := m.Rank()
		if rank > r || rank > c {
			t.Fatalf("rank %d exceeds dims %dx%d", rank, r, c)
		}
		if rank != m.Transpose().Rank() {
			t.Fatal("rank(A) != rank(Aᵀ)")
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	found := 0
	for trial := 0; trial < 200 && found < 20; trial++ {
		n := 2 + rng.IntN(20)
		m := randDense(rng, n, n)
		inv, err := m.Inverse()
		if err != nil {
			continue // singular draw
		}
		found++
		if !m.Mul(inv).Equal(Eye(n)) || !inv.Mul(m).Equal(Eye(n)) {
			t.Fatal("Inverse is not a two-sided inverse")
		}
	}
	if found == 0 {
		t.Fatal("no invertible matrices found in 200 draws")
	}
}

func TestInverseSingular(t *testing.T) {
	m := FromRows([][]int{{1, 1}, {1, 1}})
	if _, err := m.Inverse(); err == nil {
		t.Error("expected ErrSingular for rank-deficient matrix")
	}
	if _, err := NewDense(2, 3).Inverse(); err == nil {
		t.Error("expected error for non-square matrix")
	}
	if inv, err := NewDense(0, 0).Inverse(); err != nil || inv.Rows() != 0 || inv.Cols() != 0 {
		t.Errorf("0×0 Inverse = %v, %v; want the 0×0 identity", inv, err)
	}
}

func TestSolveSatisfiesSystem(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 36))
	for trial := 0; trial < 50; trial++ {
		r, c := 1+rng.IntN(25), 1+rng.IntN(25)
		m := randDense(rng, r, c)
		// Construct a solvable RHS: b = m·x0 for random x0.
		x0 := randVec(rng, c)
		b := m.MulVec(x0)
		x, err := m.Solve(b)
		if err != nil {
			t.Fatalf("Solve failed on consistent system: %v", err)
		}
		if !m.MulVec(x).Equal(b) {
			t.Fatal("Solve returned non-solution")
		}
	}
}

func TestSolveInconsistent(t *testing.T) {
	m := FromRows([][]int{{1, 1}, {1, 1}})
	b := VecFromInts([]int{1, 0})
	if _, err := m.Solve(b); err == nil {
		t.Error("expected error for inconsistent system")
	}
}

func TestNullSpace(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 38))
	for trial := 0; trial < 40; trial++ {
		r, c := 1+rng.IntN(20), 1+rng.IntN(30)
		m := randDense(rng, r, c)
		ns := m.NullSpace()
		// Dimension theorem: rank + nullity = cols.
		if m.Rank()+ns.Rows() != c {
			t.Fatalf("rank-nullity violated: rank=%d nullity=%d cols=%d",
				m.Rank(), ns.Rows(), c)
		}
		// Every basis vector is in the kernel.
		for i := 0; i < ns.Rows(); i++ {
			if !m.MulVec(ns.Row(i)).IsZero() {
				t.Fatal("null space vector not in kernel")
			}
		}
		// Basis is independent.
		if ns.Rank() != ns.Rows() {
			t.Fatal("null space basis not independent")
		}
	}
}

// TestRowSpaceContains: an echelon holding m's rows rejects exactly the
// vectors of m's row space.
func TestRowSpaceContains(t *testing.T) {
	m := FromRows([][]int{
		{1, 0, 1, 0},
		{0, 1, 1, 0},
	})
	q := FromRows([][]int{
		{1, 0, 1, 0}, // row 0
		{1, 1, 0, 0}, // row 0 + row 1
		{0, 0, 0, 0},
		{0, 0, 0, 1}, // e4
	})
	e, _ := echelonRows(m)
	for i, want := range []bool{false, false, false, true} {
		if got := e.AddRow(q, i); got != want {
			t.Errorf("query row %d: AddRow = %v, want %v", i, got, want)
		}
	}
}

// TestIndependentRows: the echelon takes each row outside the span of
// the rows before it.
func TestIndependentRows(t *testing.T) {
	m := FromRows([][]int{
		{1, 0, 1},
		{1, 0, 1}, // duplicate
		{0, 1, 0},
		{1, 1, 1}, // row0+row2
	})
	e, idx := echelonRows(m)
	if !slices.Equal(idx, []int{0, 2}) || e.Dim() != 2 {
		t.Errorf("echelon took rows %v (dim %d), want [0 2]", idx, e.Dim())
	}
}
