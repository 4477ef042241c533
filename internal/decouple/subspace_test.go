package decouple

import (
	"math/rand/v2"
	"slices"
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

// checkSubspaceHome grows a random direct sum of K subspaces of F₂^m the
// way planSubspace does — vectors handed to random subspaces, each kept
// only when independent of everything kept before — and asks it which
// subspace holds every raw vector, combinations within one subspace and
// across two, and random vectors. The reduced basis must answer what the
// first-containing-subspace scan over the parent's echelons answers, and
// the flat per-subspace echelons must leave the same residuals.
func checkSubspaceHome(t *testing.T, seed uint64, mRaw, kRaw, nRaw uint8) {
	rng := rand.New(rand.NewPCG(seed, 171))
	m := 1 + int(mRaw)%140
	K := 1 + int(kRaw)%6
	words := wordsFor(m)
	randVec := func(maxW int) bitvec {
		v := make(bitvec, words)
		for w := 1 + rng.IntN(maxW); w > 0; w-- {
			r := rng.IntN(m)
			v[r/64] ^= 1 << (uint(r) % 64)
		}
		return v
	}
	ds := newDirectSum(m)
	subs := make([]echelon, K)
	refs := make([]*refEchelon, K)
	for i := range refs {
		refs[i] = &refEchelon{}
	}
	all := &refEchelon{}
	raw := make([][]bitvec, K)
	for n := int(nRaw); n > 0; n-- {
		vec, i := randVec(min(m, 6)), rng.IntN(K)
		if !ds.add(vec, i) {
			if all.residual(vec).lead() >= 0 {
				t.Fatalf("m=%d K=%d: independent vector refused", m, K)
			}
			continue
		}
		if !all.add(vec) {
			t.Fatalf("m=%d K=%d: dependent vector added", m, K)
		}
		subs[i].add(vec)
		refs[i].add(vec)
		raw[i] = append(raw[i], vec)
	}

	check := func(kind string, q bitvec) {
		if q.isZero() {
			return
		}
		want, wantSpanned := refHome(refs, q), all.contains(q)
		if got, spanned := ds.home(q); got != want || spanned != wantSpanned {
			t.Fatalf("m=%d K=%d %s: home %d (spanned %v), want %d (spanned %v)", m, K, kind, got, spanned, want, wantSpanned)
		}
		for i := range subs {
			if got, want := subs[i].residual(q), refs[i].residual(q); !slices.Equal(got, want) {
				t.Fatalf("m=%d K=%d %s: subspace %d residual %x, want %x", m, K, kind, i, got, want)
			}
		}
	}
	combo := func(vs []bitvec) bitvec {
		q := slices.Clone(vs[rng.IntN(len(vs))])
		for _, v := range vs {
			if rng.IntN(2) == 0 {
				q.xor(v)
			}
		}
		return q
	}
	var filled []int
	for i, vs := range raw {
		for _, v := range vs {
			check("raw", v)
		}
		if len(vs) > 0 {
			filled = append(filled, i)
		}
	}
	for q := 0; q < 60; q++ {
		switch pick := rng.IntN(3); {
		case pick == 0 && len(filled) > 0:
			check("within", combo(raw[filled[rng.IntN(len(filled))]]))
		case pick == 1 && len(filled) > 1:
			a := rng.IntN(len(filled))
			b := (a + 1 + rng.IntN(len(filled)-1)) % len(filled)
			v := combo(raw[filled[a]])
			v.xor(combo(raw[filled[b]]))
			check("across", v)
		default:
			check("random", randVec(m))
		}
	}
}

// TestSubspaceHomeMatchesContains: the direct sum's reduced basis names
// the subspace holding a column exactly when the per-subspace scan finds
// one, and reports a column spread over several as held by none.
func TestSubspaceHomeMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewPCG(172, 173))
	for i := 0; i < 300; i++ {
		checkSubspaceHome(t, rng.Uint64(), uint8(rng.IntN(256)), uint8(rng.IntN(256)), uint8(rng.IntN(256)))
	}
}

func FuzzSubspaceHome(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint8(1), uint8(30))    // m=10, K=2
	f.Add(uint64(2), uint8(63), uint8(3), uint8(200))  // m=64: one full word
	f.Add(uint64(3), uint8(64), uint8(5), uint8(255))  // m=65, K=6: a second word
	f.Add(uint64(4), uint8(0), uint8(0), uint8(5))     // m=1, K=1
	f.Add(uint64(5), uint8(139), uint8(2), uint8(255)) // m=140, K=3: three words
	f.Fuzz(checkSubspaceHome)
}
