package core

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
)

func bb72Model(t *testing.T) *dem.Model {
	t.Helper()
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	return dem.CircuitLevel(c, 0.003)
}

func TestAllDecodersSatisfyInterface(t *testing.T) {
	model := bb72Model(t)
	veg, err := BuildVegapunk(model, decouple.Options{Seed: 1}, hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	decoders := []Decoder{
		veg,
		NewBP(model, 72),
		NewBPOSD(model, 72, 7),
		NewBPLSD(model),
		NewBPGD(model, 0, 0),
		NewGreedyNoDecouple(model, 0),
	}
	rng := rand.New(rand.NewPCG(1, 1))
	e := model.Sample(rng)
	s := model.Syndrome(e)
	for _, d := range decoders {
		if d.Name() == "" {
			t.Error("empty decoder name")
		}
		est, _ := d.Decode(s)
		if est.Len() != model.NumMech() {
			t.Errorf("%s: estimate length %d != %d", d.Name(), est.Len(), model.NumMech())
		}
	}
}

func TestDecoderNames(t *testing.T) {
	model := bb72Model(t)
	if got := NewBP(model, 100).Name(); got != "BP(100)" {
		t.Errorf("BP name %q", got)
	}
	if got := NewBP(model, 0).Name(); got != "BP" {
		t.Errorf("BP default name %q", got)
	}
	if got := NewBPOSD(model, 50, 0).Name(); got != "BP+OSD-CS(7)" {
		t.Errorf("BPOSD default name %q", got)
	}
	if got := NewBPLSD(model).Name(); got != "BP+LSD" {
		t.Errorf("LSD name %q", got)
	}
	if got := NewBPGD(model, 0, 0).Name(); got != "BPGD" {
		t.Errorf("BPGD name %q", got)
	}
}

func TestVegapunkStatsPopulated(t *testing.T) {
	model := bb72Model(t)
	veg, err := BuildVegapunk(model, decouple.Options{Seed: 2}, hier.Config{MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	sawOuter := false
	for i := 0; i < 10; i++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		_, stats := veg.Decode(s)
		if stats.Hier.OuterIters > 0 {
			sawOuter = true
		}
		if stats.Hier.OuterIters > 3 {
			t.Error("outer iterations exceed configured M")
		}
	}
	if !sawOuter {
		t.Error("trace never populated")
	}
	if veg.Decoupling() == nil {
		t.Error("Decoupling accessor nil")
	}
}

func TestVegapunkDecodeSatisfiesSyndrome(t *testing.T) {
	model := bb72Model(t)
	veg, err := BuildVegapunk(model, decouple.Options{Seed: 3}, hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	H := model.CheckMatrix()
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 25; i++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		est, _ := veg.Decode(s)
		if !H.MulVec(est).Equal(s) {
			t.Fatal("Vegapunk violated the syndrome through the core API")
		}
	}
}

func TestBPStatsIterations(t *testing.T) {
	model := bb72Model(t)
	d := NewBP(model, 20)
	_, stats := d.Decode(gf2.NewVec(model.NumDet))
	if stats.BPIters != 1 || !stats.BPConverged {
		t.Errorf("zero syndrome: iters=%d converged=%v", stats.BPIters, stats.BPConverged)
	}
}
