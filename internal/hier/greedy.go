package hier

import (
	"vegapunk/internal/gf2"
)

// GreedyDecoder is the "Vegapunk without decoupling" ablation baseline
// (paper Figure 12): the same greedy weighted search run directly on the
// original check matrix, with no block structure to restrict the search
// space. Each round flips the single mechanism that most reduces the
// weighted objective (residual syndrome weight plus error weight),
// until the syndrome is consumed or the iteration budget is exhausted.
//
// It keeps Algorithm 1's constraint semantics: when the residual
// syndrome is not fully explained within the budget, the decode is
// declared failed and the zero correction is returned (no valid
// solution exists in the search space). Without block structure this is
// the common case for heavier syndromes — the degeneracy-driven failure
// mode the decoupling ablation measures.
type GreedyDecoder struct {
	h *gf2.CSC
	w []float64
	// MaxFlips caps the number of greedy flips (default n).
	MaxFlips int
	// ResidualPenalty weights unexplained syndrome bits in the
	// objective; it must exceed typical column weights for the greedy
	// search to prioritize syndrome consumption.
	ResidualPenalty float64

	// decode scratch, owned until the next Decode call.
	e, zero, resid gf2.Vec
}

// NewGreedy builds the no-decoupling greedy decoder.
func NewGreedy(h *gf2.CSC, weights []float64, maxFlips int) *GreedyDecoder {
	if maxFlips <= 0 {
		maxFlips = h.Cols()
	}
	maxW := 0.0
	for _, w := range weights {
		if w > maxW {
			maxW = w
		}
	}
	return &GreedyDecoder{
		h:               h,
		w:               weights,
		MaxFlips:        maxFlips,
		ResidualPenalty: 2*maxW + 1,
		e:               gf2.NewVec(h.Cols()),
		zero:            gf2.NewVec(h.Cols()),
		resid:           gf2.NewVec(h.Rows()),
	}
}

// Decode greedily explains the syndrome, or returns the zero correction
// when the flip budget runs out first (exactly the weakness decoupling
// fixes). The returned vector is owned by the decoder and valid until the next
// Decode call.
func (d *GreedyDecoder) Decode(syndrome gf2.Vec) gf2.Vec {
	n := d.h.Cols()
	e := d.e
	e.Zero()
	resid := d.resid
	resid.CopyFrom(syndrome)
	maxFlips := d.MaxFlips
	for flip := 0; flip < maxFlips && !resid.IsZero(); flip++ {
		best := -1
		bestDelta := 0.0
		for j := 0; j < n; j++ {
			if e.Get(j) {
				continue
			}
			// Δobjective = w_j + penalty · (Δ residual weight).
			delta := d.w[j]
			for _, r := range d.h.ColSpan(j) {
				if resid.Get(int(r)) {
					delta -= d.ResidualPenalty
				} else {
					delta += d.ResidualPenalty
				}
			}
			if best < 0 || delta < bestDelta {
				best, bestDelta = j, delta
			}
		}
		if best < 0 || bestDelta >= 0 {
			break
		}
		e.Set(best, true)
		d.h.XorColInto(resid, best)
	}
	if !resid.IsZero() {
		return d.zero
	}
	return e
}
