package osd

import (
	"math"
	"math/rand/v2"
	"testing"

	"vegapunk/internal/bp"
	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

func uniformLLR(n int, p float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Log((1 - p) / p)
	}
	return out
}

func TestOSD0SolvesSyndrome(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 40; trial++ {
		h := gf2.NewDense(5, 12)
		for i := 0; i < 5; i++ {
			for j := 0; j < 12; j++ {
				if rng.IntN(3) == 0 {
					h.Set(i, j, true)
				}
			}
		}
		d := New(gf2.CSCFromDense(h), uniformLLR(12, 0.01), Config{Order: 0})
		e := gf2.NewVec(12)
		for j := 0; j < 12; j++ {
			if rng.IntN(6) == 0 {
				e.Set(j, true)
			}
		}
		s := h.MulVec(e)
		got := d.Decode(s, nil)
		if !h.MulVec(got).Equal(s) {
			t.Fatal("OSD-0 output violates the syndrome")
		}
	}
}

func TestOSDCSNotWorseThanOSD0(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	llr := uniformLLR(14, 0.02)
	weight := func(v gf2.Vec) float64 {
		w := 0.0
		for _, j := range v.Ones() {
			w += llr[j]
		}
		return w
	}
	for trial := 0; trial < 30; trial++ {
		h := gf2.NewDense(6, 14)
		for i := 0; i < 6; i++ {
			for j := 0; j < 14; j++ {
				if rng.IntN(3) == 0 {
					h.Set(i, j, true)
				}
			}
		}
		e := gf2.NewVec(14)
		e.Set(rng.IntN(14), true)
		e.Set(rng.IntN(14), true)
		s := h.MulVec(e)
		d0 := New(gf2.CSCFromDense(h), llr, Config{Order: 0})
		dcs := New(gf2.CSCFromDense(h), llr, Config{Order: 7})
		w0 := weight(d0.Decode(s, nil))
		wcs := weight(dcs.Decode(s, nil))
		if wcs > w0+1e-9 {
			t.Fatalf("CS(7) weight %v worse than OSD-0 weight %v", wcs, w0)
		}
	}
}

func TestOSDRecoversSingleErrors(t *testing.T) {
	// Steane code: every single error is the unique weight-1 coset
	// leader, so CS must find exactly it.
	h := gf2.FromRows([][]int{
		{1, 0, 1, 0, 1, 0, 1},
		{0, 1, 1, 0, 0, 1, 1},
		{0, 0, 0, 1, 1, 1, 1},
	})
	d := New(gf2.CSCFromDense(h), uniformLLR(7, 0.01), Config{Order: 7})
	for q := 0; q < 7; q++ {
		e := gf2.NewVec(7)
		e.Set(q, true)
		got := d.Decode(h.MulVec(e), nil)
		if !got.Equal(e) {
			t.Errorf("qubit %d: got %v", q, got)
		}
	}
}

func TestOSDSoftInformationSteers(t *testing.T) {
	// Two columns are identical; soft information must pick the one BP
	// believes is flipped.
	h := gf2.FromRows([][]int{
		{1, 1, 0},
		{1, 1, 1},
	})
	llr := uniformLLR(3, 0.01)
	d := New(gf2.CSCFromDense(h), llr, Config{Order: 0})
	s := gf2.VecFromInts([]int{1, 1}) // col 0 or col 1
	soft := []float64{5, -5, 5}       // bit 1 likely flipped
	got := d.Decode(s, soft)
	if !got.Equal(gf2.VecFromInts([]int{0, 1, 0})) {
		t.Errorf("soft steering failed: %v", got)
	}
	soft = []float64{-5, 5, 5} // bit 0 likely flipped
	got = d.Decode(s, soft)
	if !got.Equal(gf2.VecFromInts([]int{1, 0, 0})) {
		t.Errorf("soft steering failed: %v", got)
	}
}

func TestBPOSDAlwaysSatisfiesSyndrome(t *testing.T) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CodeCapacity(c, 0.03)
	d := NewBPOSD(model.Mech, model.LLRs(),
		bp.Config{MaxIters: 30}, Config{Order: 7})
	rng := rand.New(rand.NewPCG(3, 3))
	h := model.CheckMatrix()
	for trial := 0; trial < 30; trial++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		res := d.Decode(s)
		if !h.MulVec(res.Error).Equal(s) {
			t.Fatalf("BP+OSD output violates syndrome (bp converged: %v)", res.BPConverged)
		}
	}
}

func TestBPOSDMoreAccurateThanBP(t *testing.T) {
	// The headline motivation: on a degenerate quantum code BP+OSD's
	// logical error rate must beat plain BP. Count logical failures over
	// trials at code-capacity noise.
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CodeCapacity(c, 0.05)
	lz := c.LogicalZ()
	bpDec := bp.New(model.Mech, model.LLRs(), bp.Config{MaxIters: 72})
	combo := NewBPOSD(model.Mech, model.LLRs(),
		bp.Config{MaxIters: 72}, Config{Order: 7})
	rng := rand.New(rand.NewPCG(4, 4))
	bpFail, comboFail := 0, 0
	trials := 150
	h := model.CheckMatrix()
	for trial := 0; trial < trials; trial++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		rb := bpDec.Decode(s)
		resid := rb.Error.Clone()
		resid.Xor(e)
		if !rb.Converged || !h.MulVec(rb.Error).Equal(s) || !lz.MulVec(resid).IsZero() {
			bpFail++
		}
		rc := combo.Decode(s)
		resid = rc.Error.Clone()
		resid.Xor(e)
		if !lz.MulVec(resid).IsZero() {
			comboFail++
		}
	}
	if comboFail > bpFail {
		t.Errorf("BP+OSD failed %d times vs BP %d — expected improvement", comboFail, bpFail)
	}
	t.Logf("BP failures: %d/%d, BP+OSD failures: %d/%d", bpFail, trials, comboFail, trials)
}
