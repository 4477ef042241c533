package decouple

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// checkEchelon feeds the flat echelon and the slice-of-vectors reference
// the same random vectors of F₂^m, m from 1 to 140 so bases span one to
// three words: each must accept exactly the vectors the other accepts,
// and leave the same residual for every vector added, every combination
// of accepted vectors and every random query.
func checkEchelon(t *testing.T, seed uint64, mRaw, nRaw uint8) {
	rng := rand.New(rand.NewPCG(seed, 171))
	m := 1 + int(mRaw)%140
	words := wordsFor(m)
	randVec := func(maxW int) bitvec {
		v := make(bitvec, words)
		for w := 1 + rng.IntN(maxW); w > 0; w-- {
			r := rng.IntN(m)
			v[r/64] ^= 1 << (uint(r) % 64)
		}
		return v
	}
	var got echelon
	want := &refEchelon{}
	check := func(kind string, q bitvec) {
		if g, w := got.residual(q), want.residual(q); !slices.Equal(g, w) {
			t.Fatalf("m=%d %s: residual %x, want %x", m, kind, g, w)
		}
	}
	var added []bitvec
	for n := int(nRaw); n > 0; n-- {
		vec := randVec(min(m, 6))
		check("before add", vec)
		if g, w := got.add(vec), want.add(vec); g != w {
			t.Fatalf("m=%d: add accepted %v, reference %v", m, g, w)
		}
		if got.dim() != len(want.vecs) {
			t.Fatalf("m=%d: dim %d, reference %d", m, got.dim(), len(want.vecs))
		}
		added = append(added, vec)
	}
	for _, v := range added {
		check("added", v)
	}
	for q := 0; q < 60; q++ {
		if q%2 == 0 && len(added) > 0 {
			c := make(bitvec, words)
			for _, v := range added {
				if rng.IntN(2) == 0 {
					c.xor(v)
				}
			}
			check("combination", c)
			if got.residual(c).lead() >= 0 {
				t.Fatalf("m=%d: a combination of added vectors is not in the span", m)
			}
			continue
		}
		check("random", randVec(m))
	}
}

// TestEchelonMatchesReference: the flat echelon with precomputed lead
// words and masks eliminates exactly as the slice-of-vectors one.
func TestEchelonMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(172, 173))
	for i := 0; i < 300; i++ {
		checkEchelon(t, rng.Uint64(), uint8(rng.IntN(256)), uint8(rng.IntN(256)))
	}
}

func FuzzEchelon(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint8(30))    // m=10
	f.Add(uint64(2), uint8(63), uint8(200))  // m=64: one full word
	f.Add(uint64(3), uint8(64), uint8(255))  // m=65: a second word
	f.Add(uint64(4), uint8(0), uint8(5))     // m=1
	f.Add(uint64(5), uint8(139), uint8(255)) // m=140: three words
	f.Fuzz(checkEchelon)
}
