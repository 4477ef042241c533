package decouple

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

func TestSubspaceDecoupleValidates(t *testing.T) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CircuitLevel(c, 0.001)
	D := model.CheckMatrix()
	for _, K := range []int{4, 6, 12} {
		dec, err := subspaceDecouple(newSearchView(D), K)
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
		if err := dec.Validate(D); err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
		t.Logf("K=%d: ND=%d NA=%d cover=%d%% nnz=%d",
			K, dec.ND, dec.NA, 100*dec.K*dec.ND/dec.N, dec.NNZ())
	}
}

func TestSubspaceGroupsDuplicateColumns(t *testing.T) {
	// Duplicate columns must land in the same subspace as interiors.
	D := gf2.FromRows([][]int{
		{1, 1, 1, 0, 0, 1, 0},
		{1, 1, 1, 0, 0, 0, 0},
		{0, 0, 0, 1, 1, 0, 1},
		{0, 0, 0, 1, 1, 0, 0},
	})
	dec, err := subspaceDecouple(newSearchView(D), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(D); err != nil {
		t.Fatal(err)
	}
	// Columns 0,1,2 identical and 3,4 identical: blocks should absorb
	// at least the duplicates.
	if dec.K*dec.ND < 4 {
		t.Errorf("blocks cover only %d columns", dec.K*dec.ND)
	}
}

func TestSubspaceBeatsPartitionOnScatteredSupports(t *testing.T) {
	// Construct a matrix where interior structure exists only under a
	// non-coordinate decomposition: columns are sums of two fixed basis
	// vectors with interleaved supports, so no row partition isolates
	// them, but the subspace search can.
	rng := rand.New(rand.NewPCG(33, 34))
	m := 8
	basis := []gf2.Vec{
		gf2.VecFromSupport(m, []int{0, 3, 5}),
		gf2.VecFromSupport(m, []int{1, 3, 6}),
		gf2.VecFromSupport(m, []int{2, 4, 7}),
		gf2.VecFromSupport(m, []int{0, 4, 6}),
	}
	cols := 24
	D := gf2.NewDense(m, cols+m)
	for j := 0; j < cols; j++ {
		// Random combination within one of two 2-dim subspaces.
		var v gf2.Vec
		if j%2 == 0 {
			v = basis[0].Clone()
			if rng.IntN(2) == 1 {
				v.Xor(basis[1])
			}
		} else {
			v = basis[2].Clone()
			if rng.IntN(2) == 1 {
				v.Xor(basis[3])
			}
		}
		for _, r := range v.Ones() {
			D.Set(r, j, true)
		}
	}
	// Unit columns for completion.
	for r := 0; r < m; r++ {
		D.Set(r, cols+r, true)
	}
	dec, err := subspaceDecouple(newSearchView(D), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(D); err != nil {
		t.Fatal(err)
	}
	// The two planted subspaces hold all 24 structured columns; with
	// 2 blocks of dimension 4 the subspace search should absorb nearly
	// everything.
	if cover := dec.K * dec.ND; cover < 20 {
		t.Errorf("subspace coverage %d of %d too low", cover, D.Cols())
	}
}

func TestSubspaceRejectsBadK(t *testing.T) {
	D := gf2.Eye(6)
	if _, err := subspaceDecouple(newSearchView(D), 4); err == nil {
		t.Error("K not dividing m accepted")
	}
	if _, err := subspaceDecouple(newSearchView(D), 1); err == nil {
		t.Error("K=1 accepted")
	}
}
