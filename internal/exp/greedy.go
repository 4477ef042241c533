package exp

import (
	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
)

// greedyFlips is the flip budget of the Figure 12 ablation: Vegapunk's
// outer-round cap M, which the decoupled side runs with.
const greedyFlips = hier.DefaultMaxIters

// greedyDecoder is the "Vegapunk without decoupling" ablation baseline
// (paper Figure 12): the same greedy weighted search run directly on the
// original check matrix, with no block structure to restrict the search
// space. Each round flips the unflipped mechanism that shrinks the
// residual syndrome the most, the lighter (more likely) one on a tie and
// then the lower index, until the syndrome is consumed, no flip shrinks
// it, or greedyFlips flips are spent.
//
// It keeps Algorithm 1's constraint semantics: when the residual
// syndrome is not fully explained within the budget, the decode is
// declared failed and the zero correction is returned (no valid
// solution exists in the search space). Without block structure this is
// the common case for heavier syndromes — the degeneracy-driven failure
// mode the decoupling ablation measures.
type greedyDecoder struct {
	h *gf2.CSC
	w []float64

	// decode scratch, owned until the next Decode call.
	e, resid gf2.Vec
}

// newGreedyNoDecouple builds the ablation baseline on the model's
// undecoupled check matrix.
func newGreedyNoDecouple(model *dem.Model) *greedyDecoder {
	h := model.Mech
	return &greedyDecoder{
		h:     h,
		w:     model.LLRs(),
		e:     gf2.NewVec(h.Cols()),
		resid: gf2.NewVec(h.Rows()),
	}
}

// Name implements core.Decoder.
func (d *greedyDecoder) Name() string { return "Vegapunk-NoDecouple" }

// Decode greedily explains the syndrome, or returns the zero correction
// when the search stops short of it (exactly the weakness decoupling
// fixes). The returned vector is owned by the decoder and valid until
// the next Decode call.
func (d *greedyDecoder) Decode(syndrome gf2.Vec) (gf2.Vec, core.Stats) {
	e, resid := d.e, d.resid
	e.Zero()
	resid.CopyFrom(syndrome)
	for flip := 0; flip < greedyFlips && !resid.IsZero(); flip++ {
		best, bestDelta := -1, 0
		for j := 0; j < d.h.Cols(); j++ {
			if e.Get(j) {
				continue
			}
			// Δ residual weight of flipping column j.
			delta := 0
			for _, r := range d.h.ColSpan(j) {
				if resid.Get(int(r)) {
					delta--
				} else {
					delta++
				}
			}
			if delta < bestDelta || delta == bestDelta && best >= 0 && d.w[j] < d.w[best] {
				best, bestDelta = j, delta
			}
		}
		if best < 0 {
			break
		}
		e.Set(best, true)
		d.h.XorColInto(resid, best)
	}
	if !resid.IsZero() {
		e.Zero()
	}
	return e, core.Stats{}
}
