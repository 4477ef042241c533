package bpgd

import (
	"slices"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// TestBPGDZeroSyndromeNegativePrior pins which priors the inner BP
// decoder builds its zero-syndrome exit from: the real ones, not the
// scratch slice decimation rewrites. With one mechanism believed flipped
// iteration 1 does not return the zero vector, so the exit must be off
// and the zero syndrome must cost more than the one iteration it costs
// on non-negative priors.
func TestBPGDZeroSyndromeNegativePrior(t *testing.T) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CodeCapacity(c, 0.01)
	llr := slices.Clone(model.LLRs())
	llr[5] = -4 * llr[5]
	d := New(model.Mech, llr, Config{MaxRounds: 10, ItersPerRound: 20})
	if res := d.Decode(gf2.NewVec(model.NumDet)); res.TotalIters == 1 {
		t.Error("zero syndrome answered in one iteration despite a negative prior")
	}
}
