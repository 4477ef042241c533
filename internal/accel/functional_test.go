package accel

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
)

// TestFunctionalMatchesSoftware: the hardware functional model and the
// software decoder must produce identical corrections on the same
// inputs — the algorithm/architecture equivalence of the co-design.
func TestFunctionalMatchesSoftware(t *testing.T) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CircuitLevel(c, 0.004)
	dcp, err := decouple.Decouple(model.CheckMatrix(), decouple.Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	sw := hier.New(dcp, model.LLRs(), hier.Config{MaxIters: 3})
	hw := NewFunctional(dcp, model.LLRs(), 3, hier.InnerIters)
	rng := rand.New(rand.NewPCG(6, 6))
	H := model.CheckMatrix()
	for trial := 0; trial < 60; trial++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		swOut, _ := sw.Decode(s)
		hwOut := hw.Decode(s)
		if !H.MulVec(hwOut).Equal(s) {
			t.Fatal("functional model violated the syndrome")
		}
		if !swOut.Equal(hwOut) {
			t.Fatalf("trial %d: functional model diverged from software\nsw: %v\nhw: %v",
				trial, swOut.Ones(), hwOut.Ones())
		}
	}
}

func TestFunctionalMatchesSoftwareHP(t *testing.T) {
	c, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.Phenomenological(c, 0.004, 0.004)
	dcp, err := decouple.Decouple(model.CheckMatrix(), decouple.Options{HintKs: []int{9}})
	if err != nil {
		t.Fatal(err)
	}
	sw := hier.New(dcp, model.LLRs(), hier.Config{MaxIters: 2})
	hw := NewFunctional(dcp, model.LLRs(), 2, hier.InnerIters)
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 40; trial++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		swOut, _ := sw.Decode(s)
		hwOut := hw.Decode(s)
		if !swOut.Equal(hwOut) {
			t.Fatalf("trial %d: divergence", trial)
		}
	}
}

func TestComparatorTree(t *testing.T) {
	vals := []float64{3, 1, 2, 1}
	valid := []bool{true, true, true, true}
	idx, v := comparatorTree(vals, valid)
	if idx != 1 || v != 1 {
		t.Errorf("got (%d, %v), want leftmost minimum (1, 1)", idx, v)
	}
	// Invalid lanes are skipped.
	valid = []bool{false, false, true, true}
	idx, v = comparatorTree(vals, valid)
	if idx != 3 || v != 1 {
		t.Errorf("got (%d, %v), want (3, 1)", idx, v)
	}
	// All invalid.
	if idx, _ := comparatorTree(vals, []bool{false, false, false, false}); idx != -1 {
		t.Error("all-invalid should return -1")
	}
	// Single element.
	if idx, _ := comparatorTree([]float64{5}, []bool{true}); idx != 0 {
		t.Error("singleton tree broken")
	}
	if idx, _ := comparatorTree(nil, nil); idx != -1 {
		t.Error("empty tree should return -1")
	}
}

func TestIncrementalUpdateUnit(t *testing.T) {
	u := newIncrementalUpdateUnit(8)
	v := gf2.VecFromSupport(8, []int{1, 3})
	u.load(v)
	u.sparseXOR([]int32{3, 5})
	want := gf2.VecFromSupport(8, []int{1, 5})
	if !u.regfile.Equal(want) {
		t.Errorf("regfile %v, want %v", u.regfile, want)
	}
}

func TestTransformUnit(t *testing.T) {
	c, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.Phenomenological(c, 0.002, 0.002)
	dcp, err := decouple.Decouple(model.CheckMatrix(), decouple.Options{HintKs: []int{9}})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFunctional(dcp, model.LLRs(), 1, 1)
	rng := rand.New(rand.NewPCG(8, 8))
	for i := 0; i < 20; i++ {
		s := gf2.NewVec(dcp.M)
		for b := 0; b < dcp.M; b++ {
			if rng.IntN(2) == 0 {
				s.Set(b, true)
			}
		}
		if !f.transformUnit(s).Equal(dcp.T.MulVec(s)) {
			t.Fatal("transform unit disagrees with T·s")
		}
	}
}
