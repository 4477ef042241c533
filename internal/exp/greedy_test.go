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

// TestGreedyTieGoesToLighterColumn pins the search's two keys. Columns
// e₀ and e₁ both clear the syndrome {0, 1}, and e₂ = {0} and e₃ = {1}
// each clear one bit at a tenth of either weight: the larger shrink wins
// over the lighter weight, the lighter of e₀ and e₁ wins whatever its
// index, and equal weights go to the lower index.
func TestGreedyTieGoesToLighterColumn(t *testing.T) {
	h := gf2.CSCFromSupports(2, [][]int{{0, 1}, {0, 1}, {0}, {1}})
	s := gf2.NewVec(2)
	s.Set(0, true)
	s.Set(1, true)
	for _, tc := range []struct {
		w0, w1 float64
		want   int
	}{{2, 1, 1}, {1, 2, 0}, {1, 1, 0}} {
		e, _ := newGreedy(h, []float64{tc.w0, tc.w1, 0.1, 0.1}).Decode(s)
		if !e.Get(tc.want) || e.Weight() != 1 {
			t.Errorf("weights %v, %v: correction %v, want [%d]", tc.w0, tc.w1, e.Ones(), tc.want)
		}
	}
}
