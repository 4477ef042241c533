package hier

import (
	"math/rand/v2"
	"slices"
	"testing"

	"vegapunk/internal/decouple"
	"vegapunk/internal/gf2"
)

// synthDecoupling hand-builds a decoupling of its own assembled D' (T and
// P are identities): k blocks of shape md × (md+nB) and na columns of A,
// every B and A column holding 1..maxW distinct random rows. It reaches
// shapes the offline search does not produce on demand, such as md > 64.
func synthDecoupling(rng *rand.Rand, k, md, nB, na, maxW int) *decouple.Decoupling {
	randCols := func(rows, cols int) *gf2.CSC {
		sups := make([][]int, cols)
		for j := range sups {
			w := 1 + rng.IntN(min(maxW, rows))
			sups[j] = rng.Perm(rows)[:w]
		}
		return gf2.CSCFromSupports(rows, sups)
	}
	dec := &decouple.Decoupling{
		M: k * md, N: k*(md+nB) + na,
		K: k, MD: md, ND: md + nB, NA: na,
		T: gf2.Eye(k * md),
		A: randCols(k*md, na),
	}
	dec.ColOrder = make([]int, dec.N)
	for j := range dec.ColOrder {
		dec.ColOrder[j] = j
	}
	for g := 0; g < k; g++ {
		dec.Blocks = append(dec.Blocks, randCols(md, nB))
	}
	return dec
}

// randWeights draws n weights in (0.5, 5.5), each negated with
// probability negShare.
func randWeights(rng *rand.Rand, n int, negShare float64) []float64 {
	w := make([]float64, n)
	for j := range w {
		w[j] = 0.5 + 5*rng.Float64()
		if rng.Float64() < negShare {
			w[j] = -w[j]
		}
	}
	return w
}

func randSyndrome(rng *rand.Rand, m, oneIn int) gf2.Vec {
	s := gf2.NewVec(m)
	for i := 0; i < m; i++ {
		if rng.IntN(oneIn) == 0 {
			s.Set(i, true)
		}
	}
	return s
}

// wordsOf packs v into n words.
func wordsOf(v gf2.Vec, n int) []uint64 {
	out := make([]uint64, n)
	for i := 0; i < (v.Len()+63)/64; i++ {
		out[i] = v.Word(i)
	}
	return out
}

// checkGreedyGuessWords solves one random block both ways and compares
// f, g, the objective and the inner round count.
func checkGreedyGuessWords(t *testing.T, seed uint64, md, nB, maxW int, negShare float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x9d))
	dec := synthDecoupling(rng, 1, md, nB, 0, maxW)
	w := randWeights(rng, dec.N, negShare)
	cfg := Config{}
	d := New(dec, w, cfg)
	sl := randSyndrome(rng, md, 1+rng.IntN(8))
	want := refGreedyGuess(dec, d.w, cfg, 0, sl)
	wantInner := want.g.Weight() // every round that counts sets one new bit
	sol := newBlockSols(d, 1)[0]
	d.greedyGuess(0, wordsOf(sl, d.fW), &sol)
	if !slices.Equal(sol.f, wordsOf(want.f, d.fW)) || !slices.Equal(sol.g, wordsOf(want.g, d.gW)) ||
		sol.obj != want.obj || sol.inner != wantInner {
		t.Fatalf("md %d nB %d maxW %d neg %.2f seed %d: word kernel (f %x g %x obj %v inner %d) != reference (f %v g %v obj %v inner %d)",
			md, nB, maxW, negShare, seed, sol.f, sol.g, sol.obj, sol.inner, want.f, want.g, want.obj, wantInner)
	}
}

// FuzzGreedyGuessWords holds the word kernel to the bit-level reference
// over block shapes on both sides of every word boundary, with pruning
// on (all weights nonnegative) and off (sign fuzzed).
func FuzzGreedyGuessWords(f *testing.F) {
	// The BB [[72,12,6]], [[144,12,12]] and [[288,12,18]] block shapes.
	f.Add(uint64(1), uint16(12), uint16(60), uint8(3), uint8(0))
	f.Add(uint64(2), uint16(18), uint16(72), uint8(3), uint8(0))
	f.Add(uint64(3), uint16(36), uint16(152), uint8(3), uint8(0))
	f.Add(uint64(4), uint16(130), uint16(200), uint8(4), uint8(64))
	f.Add(uint64(5), uint16(64), uint16(64), uint8(2), uint8(255))
	f.Add(uint64(6), uint16(65), uint16(129), uint8(1), uint8(16))
	f.Fuzz(func(t *testing.T, seed uint64, md, nB uint16, maxW, neg uint8) {
		checkGreedyGuessWords(t, seed, 1+int(md)%130, 1+int(nB)%200, 1+int(maxW)%4, float64(neg)/255)
	})
}

// TestWideBlocksBypassTable decodes a synthetic decoupling with MD > 64:
// f spans two words, the objective table is off, and with nonnegative or
// signed weights (pruning on or off) every decode equals the reference.
func TestWideBlocksBypassTable(t *testing.T) {
	for _, negShare := range []float64{0, 0.2} {
		rng := rand.New(rand.NewPCG(64, 65))
		dec := synthDecoupling(rng, 3, 70, 150, 90, 3)
		w := randWeights(rng, dec.N, negShare)
		d := New(dec, w, Config{})
		if d.fW != 2 || d.gW != 3 || d.table != nil || d.pruned != (negShare == 0) {
			t.Fatalf("neg %.1f: fW %d gW %d table %v pruned %v, want 2, 3, off, %v",
				negShare, d.fW, d.gW, d.table != nil, d.pruned, negShare == 0)
		}
		for shot := 0; shot < 64; shot++ {
			syn := randSyndrome(rng, dec.M, 12)
			want := refHierDecode(dec, w, Config{}, syn, false)
			if got, _ := d.Decode(syn); !got.Equal(want) {
				t.Fatalf("neg %.1f shot %d: Decode differs from the reference", negShare, shot)
			}
		}
	}
}
