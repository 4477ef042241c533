package hier

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// fixtures builds a decoupled HP [[162,2,4]] phenomenological model.
func hpFixture(t *testing.T) (*dem.Model, *decouple.Decoupling) {
	t.Helper()
	c, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.Phenomenological(c, 0.003, 0.003)
	D := model.CheckMatrix()
	dec, err := decouple.Decouple(D, decouple.Options{HintKs: []int{9}})
	if err != nil {
		t.Fatal(err)
	}
	return model, dec
}

func bbFixture(t *testing.T) (*dem.Model, *decouple.Decoupling) {
	t.Helper()
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CircuitLevel(c, 0.001)
	D := model.CheckMatrix()
	dec, err := decouple.Decouple(D, decouple.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return model, dec
}

func TestDecodeZeroSyndrome(t *testing.T) {
	model, dec := hpFixture(t)
	d := New(dec, model.LLRs(), Config{})
	e, tr := d.Decode(gf2.NewVec(model.NumDet))
	if !e.IsZero() {
		t.Error("nonzero correction for zero syndrome")
	}
	if tr.Weight != 0 {
		t.Errorf("weight %v for zero syndrome", tr.Weight)
	}
}

func TestDecodeAlwaysSatisfiesSyndrome(t *testing.T) {
	for _, fix := range []func(*testing.T) (*dem.Model, *decouple.Decoupling){hpFixture, bbFixture} {
		model, dec := fix(t)
		H := model.CheckMatrix()
		d := New(dec, model.LLRs(), Config{})
		rng := rand.New(rand.NewPCG(1, 1))
		for trial := 0; trial < 40; trial++ {
			e := model.Sample(rng)
			s := model.Syndrome(e)
			got, _ := d.Decode(s)
			if !H.MulVec(got).Equal(s) {
				t.Fatalf("%s: hierarchical decode violated the syndrome", model.Name)
			}
		}
	}
}

func TestDecodeRecoversSingleMechanisms(t *testing.T) {
	model, dec := hpFixture(t)
	H := model.CheckMatrix()
	d := New(dec, model.LLRs(), Config{})
	rng := rand.New(rand.NewPCG(2, 2))
	exact := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		e := gf2.NewVec(model.NumMech())
		e.Set(rng.IntN(model.NumMech()), true)
		s := H.MulVec(e)
		got, _ := d.Decode(s)
		if got.Equal(e) {
			exact++
		} else if !H.MulVec(got).Equal(s) {
			t.Fatal("violated syndrome")
		}
	}
	// Single mechanisms are weight-1 coset leaders; the hierarchical
	// decoder should recover the vast majority exactly (degenerate
	// equal-weight alternatives account for the rest).
	if exact < trials*3/4 {
		t.Errorf("exact recovery only %d/%d", exact, trials)
	}
}

func TestMaxItersBoundsOuterLoop(t *testing.T) {
	model, dec := bbFixture(t)
	d := New(dec, model.LLRs(), Config{MaxIters: 2})
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 20; trial++ {
		e := model.Sample(rng)
		_, tr := d.Decode(model.Syndrome(e))
		if tr.OuterIters > 2 {
			t.Fatalf("outer iterations %d exceed M=2", tr.OuterIters)
		}
	}
}

func TestTraceAccounting(t *testing.T) {
	model, dec := hpFixture(t)
	d := New(dec, model.LLRs(), Config{})
	rng := rand.New(rand.NewPCG(6, 6))
	sawWork := false
	for trial := 0; trial < 20; trial++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		_, tr := d.Decode(s)
		if tr.BlockDecodes < dec.K {
			t.Fatal("baseline must decode every block")
		}
		if !s.IsZero() && tr.Candidates > 0 {
			sawWork = true
		}
		if tr.Candidates > tr.OuterIters*dec.NA {
			t.Fatal("candidate accounting exceeds NA per round")
		}
	}
	if !sawWork {
		t.Error("no candidate evaluations observed")
	}
}

func TestWeightedObjectivePrefersLikelyMechanisms(t *testing.T) {
	// Two mechanisms with identical syndromes but different priors: the
	// decoder must blame the likelier one. Build a tiny artificial model.
	D := gf2.FromRows([][]int{
		{1, 1, 0, 0},
		{0, 0, 1, 1},
	})
	dec, err := decouple.Decouple(D, decouple.Options{ForceK: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Column 0 and 1 are syndrome-identical; make column 1 far likelier.
	w := []float64{5.0, 1.0, 5.0, 1.0}
	d := New(dec, w, Config{})
	s := gf2.VecFromInts([]int{1, 0})
	e, _ := d.Decode(s)
	if !e.Get(1) || e.Get(0) {
		t.Errorf("decoder blamed the unlikely mechanism: %v", e)
	}
}
