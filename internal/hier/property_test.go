package hier

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/decouple"
	"vegapunk/internal/gf2"
)

// randomFeasible builds a random matrix with an identity block so the
// offline stage always succeeds.
func randomFeasible(rng *rand.Rand, m, extra int) *gf2.Dense {
	d := gf2.NewDense(m, m+extra)
	for i := 0; i < m; i++ {
		d.Set(i, i, true)
	}
	maxW := m / 4
	if maxW < 1 {
		maxW = 1
	}
	for j := m; j < m+extra; j++ {
		w := 1 + rng.IntN(maxW)
		for t := 0; t < w; t++ {
			d.Set(rng.IntN(m), j, true)
		}
	}
	return d
}

// TestDecodeConstraintProperty: the hierarchical decoder's output always
// satisfies D·ê = s, for random matrices, weights, and syndromes — the
// structural guarantee BP lacks.
func TestDecodeConstraintProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	for trial := 0; trial < 30; trial++ {
		m := 8 * (1 + rng.IntN(3))
		D := randomFeasible(rng, m, 3+rng.IntN(20))
		dec, err := decouple.Decouple(D, decouple.Options{Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, D.Cols())
		for j := range w {
			w[j] = 0.5 + 5*rng.Float64()
		}
		d := New(dec, w, Config{MaxIters: 1 + rng.IntN(4)})
		for k := 0; k < 8; k++ {
			// Any syndrome reachable by some error (identity block makes
			// every syndrome reachable).
			s := gf2.NewVec(m)
			for i := 0; i < m; i++ {
				if rng.IntN(3) == 0 {
					s.Set(i, true)
				}
			}
			e, tr := d.Decode(s)
			if !D.MulVec(e).Equal(s) {
				t.Fatalf("trial %d: constraint violated", trial)
			}
			// The achieved weight must equal the weight of the returned
			// error (trace consistency).
			sum := 0.0
			for _, j := range e.Ones() {
				sum += w[j]
			}
			if diff := sum - tr.Weight; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("trial %d: trace weight %v != actual %v", trial, tr.Weight, sum)
			}
		}
	}
}

// TestDecodeNeverWorseThanTrivialProperty: the decoder's weighted
// objective never exceeds the trivial identity-column solution (which
// GreedyGuess starts from), i.e. greedy search only improves.
func TestDecodeNeverWorseThanTrivialProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(103, 104))
	for trial := 0; trial < 20; trial++ {
		m := 8 * (1 + rng.IntN(3))
		D := randomFeasible(rng, m, 3+rng.IntN(15))
		dec, err := decouple.Decouple(D, decouple.Options{Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, D.Cols())
		for j := range w {
			w[j] = 0.5 + 5*rng.Float64()
		}
		d := New(dec, w, Config{})
		s := gf2.NewVec(m)
		for i := 0; i < m; i++ {
			if rng.IntN(2) == 0 {
				s.Set(i, true)
			}
		}
		_, tr := d.Decode(s)
		// Trivial solution: explain s' = T·s entirely with the identity
		// columns of the blocks.
		sp := dec.T.MulVec(s)
		wp := dec.PermuteWeights(w)
		trivial := 0.0
		for _, r := range sp.Ones() {
			g := r / dec.MD
			trivial += wp[g*dec.ND+(r-g*dec.MD)]
		}
		if tr.Weight > trivial+1e-9 {
			t.Fatalf("trial %d: decoder weight %v worse than trivial %v", trial, tr.Weight, trivial)
		}
	}
}
