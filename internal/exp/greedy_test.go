package exp

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// newGreedy builds the greedy baseline on h with the given mechanism
// weights (LLRs), through a model whose priors carry them.
func newGreedy(h *gf2.CSC, weights []float64) *greedyDecoder {
	prior := make([]float64, len(weights))
	for j, w := range weights {
		prior[j] = 1 / (1 + math.Exp(w))
	}
	return newGreedyNoDecouple(&dem.Model{Mech: h, Prior: prior})
}

// randomFeasible builds a random matrix with an identity block, so every
// syndrome has a solution.
func randomFeasible(rng *rand.Rand, m, extra int) *gf2.Dense {
	d := gf2.NewDense(m, m+extra)
	for i := 0; i < m; i++ {
		d.Set(i, i, true)
	}
	maxW := max(m/4, 1)
	for j := m; j < m+extra; j++ {
		w := 1 + rng.IntN(maxW)
		for t := 0; t < w; t++ {
			d.Set(rng.IntN(m), j, true)
		}
	}
	return d
}

// TestGreedyDecoderProperty: the no-decoupling greedy baseline respects
// its flip budget, and whatever nonzero correction it returns explains
// the syndrome exactly.
func TestGreedyDecoderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		m := 8 + int(seed%5)
		D := randomFeasible(rng, m, 5)
		w := make([]float64, D.Cols())
		for j := range w {
			w[j] = 1 + rng.Float64()
		}
		g := newGreedy(gf2.CSCFromDense(D), w)
		s := gf2.NewVec(m)
		for i := 0; i < m; i++ {
			if rng.IntN(2) == 0 {
				s.Set(i, true)
			}
		}
		e, _ := g.Decode(s)
		return e.Weight() <= greedyFlips && (e.IsZero() || D.MulVec(e).Equal(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestGreedySolvesUnitSyndromes: with identity columns available, the
// greedy baseline resolves single-detector syndromes exactly.
func TestGreedySolvesUnitSyndromes(t *testing.T) {
	rng := rand.New(rand.NewPCG(105, 106))
	D := randomFeasible(rng, 8, 10)
	w := make([]float64, D.Cols())
	for j := range w {
		w[j] = 1
	}
	g := newGreedy(gf2.CSCFromDense(D), w)
	for i := 0; i < 8; i++ {
		s := gf2.NewVec(8)
		s.Set(i, true)
		if e, _ := g.Decode(s); !D.MulVec(e).Equal(s) {
			t.Fatalf("greedy failed unit syndrome %d", i)
		}
	}
}

// TestGreedyPenaltyBoundary pins the objective's residual penalty,
// 2·maxW + 1, where it decides: against a mechanism believed flipped.
// Columns e₀ (weight 1) and e₁ (weight −x) and the syndrome e₀: e₀
// explains it at 1 − P, while e₁ leaves two bits unexplained at −x + P,
// and once e₁ is taken e₀ alone cannot clear row 1. With P = 3 the
// search answers e₀ for x < 2P − 1 = 5 and the zero correction above.
func TestGreedyPenaltyBoundary(t *testing.T) {
	h := gf2.CSCFromDense(gf2.Eye(2))
	s := gf2.NewVec(2)
	s.Set(0, true)
	for _, tc := range []struct {
		x    float64
		want bool // e₀ answered
	}{{4.9, true}, {5.1, false}} {
		e, _ := newGreedy(h, []float64{1, -tc.x}).Decode(s)
		if got := e.Get(0) && e.Weight() == 1; got != tc.want {
			t.Errorf("x = %v: correction %v, want e₀ %v", tc.x, e.Ones(), tc.want)
		}
	}
}
