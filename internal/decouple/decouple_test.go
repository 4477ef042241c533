package decouple

import (
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

func TestCandidateKs(t *testing.T) {
	// Paper's worked example: m = 36, S = 6 → K ∈ {6, 4, 3, 2}.
	got := candidateKs(36, 6)
	want := []int{6, 4, 3, 2}
	if len(got) != len(want) {
		t.Fatalf("candidateKs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidateKs = %v, want %v", got, want)
		}
	}
}

func TestDecoupleHPPhenomenological(t *testing.T) {
	// HP codes decouple analytically: I_t ⊗ H2ᵀ is already block
	// diagonal and the measurement-error identity supplies the I parts.
	// For [[162,2,4]] the paper reports A [81,81], D_i [9,18], K=9.
	c, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.Phenomenological(c, 0.001, 0.001)
	D := model.CheckMatrix()
	// K = t = 9 is the paper's analytic rule for HP codes (§4.2).
	dec, err := Decouple(D, Options{HintKs: []int{9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(D); err != nil {
		t.Fatal(err)
	}
	if dec.K != 9 || dec.MD != 9 {
		t.Errorf("K=%d MD=%d, want K=9 MD=9", dec.K, dec.MD)
	}
	if dec.ND != 18 {
		t.Errorf("ND=%d, want 18 (paper D_i shape [9,18])", dec.ND)
	}
	if dec.NA != 81 {
		t.Errorf("NA=%d, want 81 (paper A shape [81,81])", dec.NA)
	}
	aS, bS := dec.Sparsity()
	if aS > 2 || bS > 2 {
		t.Errorf("sparsity A=%d B=%d, paper reports 2/2", aS, bS)
	}
}

func TestDecoupleBBCircuitLevel(t *testing.T) {
	c, err := code.NewBBByIndex(0) // [[72,12,6]]
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CircuitLevel(c, 0.001)
	D := model.CheckMatrix()
	dec, err := Decouple(D, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(D); err != nil {
		t.Fatal(err)
	}
	if dec.M != 36 || dec.N != 360 {
		t.Fatalf("shape [%d,%d], want [36,360]", dec.M, dec.N)
	}
	// The paper's divisor rule: with S = 3 the largest feasible K is 12.
	if dec.K < 2 {
		t.Errorf("K = %d", dec.K)
	}
	// Blocks must cover a nontrivial fraction of columns for the online
	// algorithm to be useful.
	if dec.K*dec.ND < dec.N/4 {
		t.Errorf("blocks cover only %d of %d columns", dec.K*dec.ND, dec.N)
	}
	t.Logf("BB72 decoupling: K=%d MD=%d ND=%d NA=%d nnz=%d", dec.K, dec.MD, dec.ND, dec.NA, dec.NNZ())
}

func TestDecoupleRoundTripsSyndrome(t *testing.T) {
	// Exactness of the factorization: for any error e, the transformed
	// syndrome of the permuted error equals D'·e'.
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CircuitLevel(c, 0.001)
	D := model.CheckMatrix()
	dec, err := Decouple(D, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dPrime := dec.Assemble()
	e := gf2.NewVec(D.Cols())
	e.Set(3, true)
	e.Set(77, true)
	e.Set(200, true)
	s := D.MulVec(e)
	// e' with e'[j] = e[ColOrder[j]].
	ePrime := gf2.NewVec(D.Cols())
	for j, src := range dec.ColOrder {
		if e.Get(src) {
			ePrime.Set(j, true)
		}
	}
	lhs := dPrime.MulVec(ePrime)
	rhs := dec.TransformSyndrome(s)
	if !lhs.Equal(rhs) {
		t.Error("D'·e' != T·s — factorization broken")
	}
	// RecoverError inverts the permutation.
	if !dec.RecoverError(ePrime).Equal(e) {
		t.Error("RecoverError does not invert the column permutation")
	}
}

func TestSynthesizeRejectsBadPartitions(t *testing.T) {
	D := gf2.Eye(4)
	if _, err := synthesize(newSearchView(D, 0), [][]int{{0, 1}, {2}}); err == nil {
		t.Error("unequal groups accepted")
	}
	if _, err := synthesize(newSearchView(D, 0), [][]int{{0, 1}, {1, 2}}); err == nil {
		t.Error("overlapping groups accepted")
	}
	if _, err := synthesize(newSearchView(D, 0), [][]int{{0, 1}, {2, 2}}); err == nil {
		t.Error("duplicated row accepted")
	}
}

func TestSynthesizeFailsWithoutInteriorRank(t *testing.T) {
	// A matrix whose every column crosses any 2-group partition of its
	// 4 rows in this fixed grouping: all columns have support {0,2} or
	// {1,3}, while groups are {0,1} and {2,3}.
	D := gf2.FromRows([][]int{
		{1, 0},
		{0, 1},
		{1, 0},
		{0, 1},
	})
	if _, err := synthesize(newSearchView(D, 0), [][]int{{0, 1}, {2, 3}}); err == nil {
		t.Error("expected interior-rank failure")
	}
}

func TestValidateCatchesTampering(t *testing.T) {
	c, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.Phenomenological(c, 0.001, 0.001)
	D := model.CheckMatrix()
	dec, err := Decouple(D, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with a block entry.
	b := dec.Blocks[0]
	tampered := make([][]int32, b.Cols())
	for j := range tampered {
		tampered[j] = b.ColSpan(j)
	}
	if len(tampered[0]) > 0 {
		tampered[0] = tampered[0][1:]
	} else {
		tampered[0] = []int32{0}
	}
	dec.Blocks[0] = gf2.CSCFromSupports(b.Rows(), tampered)
	if err := dec.Validate(D); err == nil {
		t.Error("Validate accepted a tampered artifact")
	}
}

func TestPermuteWeights(t *testing.T) {
	c, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.Phenomenological(c, 0.001, 0.002)
	D := model.CheckMatrix()
	dec, err := Decouple(D, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := model.LLRs()
	wp := dec.PermuteWeights(w)
	for j := range wp {
		if wp[j] != w[dec.ColOrder[j]] {
			t.Fatal("weight permutation wrong")
		}
	}
}
