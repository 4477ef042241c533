package exp

import (
	"math/rand/v2"
	"slices"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

func bb72CodeCapacity(t *testing.T, p float64) *dem.Model {
	t.Helper()
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	return dem.CodeCapacity(c, p)
}

func TestBPGDZeroSyndrome(t *testing.T) {
	model := bb72CodeCapacity(t, 0.01)
	d := newBPGD(model, 10, 20)
	res := d.decode(gf2.NewVec(model.NumDet))
	if !res.converged || !res.e.IsZero() {
		t.Error("BPGD failed on zero syndrome")
	}
	if res.rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.rounds)
	}
}

func TestBPGDSatisfiesSyndrome(t *testing.T) {
	model := bb72CodeCapacity(t, 0.02)
	d := newBPGD(model, 40, 30)
	rng := rand.New(rand.NewPCG(5, 5))
	h := model.CheckMatrix()
	converged := 0
	for trial := 0; trial < 25; trial++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		res := d.decode(s)
		if res.converged {
			converged++
			if !h.MulVec(res.e).Equal(s) {
				t.Fatal("converged BPGD output violates syndrome")
			}
		}
		if res.iters < res.rounds {
			t.Fatal("iteration accounting broken")
		}
	}
	if converged < 20 {
		t.Errorf("BPGD converged only %d/25 times at p=2%%", converged)
	}
}

func TestBPGDDecimationBreaksStalls(t *testing.T) {
	// Force tiny per-round iteration budgets so plain BP fails, and
	// verify decimation still reaches convergence on some trials with
	// multiple rounds used.
	model := bb72CodeCapacity(t, 0.05)
	d := newBPGD(model, 60, 4)
	rng := rand.New(rand.NewPCG(6, 6))
	multiRound := 0
	for trial := 0; trial < 25; trial++ {
		e := model.Sample(rng)
		res := d.decode(model.Syndrome(e))
		if res.converged && res.rounds > 1 {
			multiRound++
		}
	}
	if multiRound == 0 {
		t.Error("decimation never contributed a convergence")
	}
}

// TestBPGDDefaults: the Full budget is the paper's baseline
// configuration, n rounds of 100 BP iterations.
func TestBPGDDefaults(t *testing.T) {
	model := bb72CodeCapacity(t, 0.01)
	rounds, iters := Config{Quality: Full}.bpgdBudget(model.NumMech())
	if rounds != model.NumMech() || iters != 100 {
		t.Errorf("Full budget %d×%d, want %d×100", rounds, iters, model.NumMech())
	}
}

// TestBPGDZeroSyndromeNegativePrior pins which priors the inner BP
// decoder builds its zero-syndrome exit from: the real ones, not the
// scratch slice decimation rewrites. With one mechanism believed flipped
// iteration 1 does not return the zero vector, so the exit must be off
// and the zero syndrome must cost more than the one iteration it costs
// on non-negative priors.
func TestBPGDZeroSyndromeNegativePrior(t *testing.T) {
	model := *bb72CodeCapacity(t, 0.01)
	model.Prior = slices.Clone(model.Prior)
	odds := model.Prior[5] / (1 - model.Prior[5])
	model.Prior[5] = 1 / (1 + odds*odds*odds*odds) // LLR −4× the original
	d := newBPGD(&model, 10, 20)
	if res := d.decode(gf2.NewVec(model.NumDet)); res.iters == 1 {
		t.Error("zero syndrome answered in one iteration despite a negative prior")
	}
}
