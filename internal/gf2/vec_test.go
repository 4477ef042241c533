package gf2

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, n int) Vec {
	v := NewVec(n)
	for i := 0; i < n; i++ {
		if rng.IntN(2) == 1 {
			v.Set(i, true)
		}
	}
	return v
}

func TestVecSetGetFlip(t *testing.T) {
	v := NewVec(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	v.Set(0, true)
	v.Set(64, true)
	v.Set(129, true)
	for _, i := range []int{0, 64, 129} {
		if !v.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if v.Weight() != 3 {
		t.Errorf("Weight = %d, want 3", v.Weight())
	}
	v.Flip(64)
	if v.Get(64) {
		t.Error("bit 64 should be cleared after flip")
	}
	v.Set(0, false)
	if v.Get(0) {
		t.Error("bit 0 should be cleared")
	}
	if got := v.Weight(); got != 1 {
		t.Errorf("Weight = %d, want 1", got)
	}
}

func TestVecOnesRoundTrip(t *testing.T) {
	support := []int{3, 17, 64, 65, 99}
	v := VecFromSupport(100, support)
	got := v.Ones()
	if len(got) != len(support) {
		t.Fatalf("Ones len = %d, want %d", len(got), len(support))
	}
	for i := range got {
		if got[i] != support[i] {
			t.Errorf("Ones[%d] = %d, want %d", i, got[i], support[i])
		}
	}
}

func TestVecXorSelfIsZero(t *testing.T) {
	f := func(bits []bool) bool {
		v := NewVec(len(bits))
		for i, b := range bits {
			v.Set(i, b)
		}
		u := v.Clone()
		v.Xor(u)
		return v.IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecXorCommutative(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(200)
		a, b := randVec(rng, n), randVec(rng, n)
		ab := a.Clone()
		ab.Xor(b)
		ba := b.Clone()
		ba.Xor(a)
		if !ab.Equal(ba) {
			t.Fatalf("xor not commutative at n=%d", n)
		}
	}
}

func TestVecWeightMatchesOnes(t *testing.T) {
	f := func(bits []bool) bool {
		v := NewVec(len(bits))
		for i, b := range bits {
			v.Set(i, b)
		}
		return v.Weight() == len(v.Ones())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecSliceConcat(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.IntN(120)
		v := randVec(rng, n)
		cut := rng.IntN(n)
		lo, hi := v.Slice(0, cut), v.Slice(cut, n)
		back := VecFromInts(append(lo.Ints(), hi.Ints()...))
		if !back.Equal(v) {
			t.Fatalf("slice+concat roundtrip failed n=%d cut=%d", n, cut)
		}
	}
}

func TestVecStringAndInts(t *testing.T) {
	v := VecFromInts([]int{1, 0, 1, 1, 0})
	if v.String() != "10110" {
		t.Errorf("String = %q, want 10110", v.String())
	}
	ints := v.Ints()
	want := []int{1, 0, 1, 1, 0}
	for i := range want {
		if ints[i] != want[i] {
			t.Errorf("Ints[%d] = %d, want %d", i, ints[i], want[i])
		}
	}
}

func TestVecCopyFromAndZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	v := randVec(rng, 77)
	u := NewVec(77)
	u.CopyFrom(v)
	if !u.Equal(v) {
		t.Error("CopyFrom mismatch")
	}
	u.Zero()
	if !u.IsZero() {
		t.Error("Zero did not clear")
	}
	if v.Weight() == 0 {
		t.Skip("degenerate random draw")
	}
}

func TestVecPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	a, b := NewVec(5), NewVec(6)
	a.Xor(b)
}

func TestCopyVec(t *testing.T) {
	src := VecFromInts([]int{1, 0, 1, 1, 0, 1})

	// Empty destination: allocates an independent copy.
	var dst Vec
	CopyVec(&dst, src)
	if !dst.Equal(src) {
		t.Fatal("CopyVec into empty dst mismatch")
	}
	src.Flip(0)
	if dst.Equal(src) {
		t.Fatal("CopyVec aliases src storage")
	}

	// Matching destination: storage is reused in place.
	before := dst
	CopyVec(&dst, src)
	if !dst.Equal(src) {
		t.Fatal("CopyVec into sized dst mismatch")
	}
	if &before.w[0] != &dst.w[0] {
		t.Fatal("CopyVec reallocated a correctly-sized dst")
	}

	// Length change: reallocates to match.
	big := NewVec(200)
	big.Set(137, true)
	CopyVec(&dst, big)
	if !dst.Equal(big) {
		t.Fatal("CopyVec resize mismatch")
	}
}
