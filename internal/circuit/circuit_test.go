package circuit

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/gf2"
)

func steane(t *testing.T) *code.CSS {
	t.Helper()
	h := gf2.FromRows([][]int{
		{1, 0, 1, 0, 1, 0, 1},
		{0, 1, 1, 0, 0, 1, 1},
		{0, 0, 0, 1, 1, 1, 1},
	})
	c, err := code.NewCSS("Steane", h.Clone(), h.Clone(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExtractionScheduleValid(t *testing.T) {
	for _, build := range []func() *gf2.Dense{
		func() *gf2.Dense { return steane(t).HZ },
		func() *gf2.Dense {
			c, err := code.NewBBByIndex(0)
			if err != nil {
				t.Fatal(err)
			}
			return c.HZ
		},
		func() *gf2.Dense {
			c, err := code.NewHPByIndex(0)
			if err != nil {
				t.Fatal(err)
			}
			return c.HZ
		},
	} {
		h := build()
		circ, err := Extraction(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := circ.Validate(h); err != nil {
			t.Fatal(err)
		}
		// Depth at least the max check degree, at most a small multiple.
		if circ.Depth < h.MaxRowWeight() {
			t.Errorf("depth %d below max check degree %d", circ.Depth, h.MaxRowWeight())
		}
		if circ.Depth > 4*h.MaxRowWeight()+4 {
			t.Errorf("depth %d suspiciously large (max degree %d)", circ.Depth, h.MaxRowWeight())
		}
	}
}

func TestValidateCatchesBrokenSchedule(t *testing.T) {
	h := steane(t).HZ
	circ, err := Extraction(h)
	if err != nil {
		t.Fatal(err)
	}
	// Swap two entries so the schedule no longer matches the support.
	circ.Schedule[0][0] = (circ.Schedule[0][0] + 1) % 7
	if err := circ.Validate(h); err == nil {
		t.Error("tampered schedule accepted")
	}
}

func TestMemoryDEMSteane(t *testing.T) {
	c := steane(t)
	model, err := MemoryDEM(c, Params{P: 0.001}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 2 noisy rounds + 1 ideal: 9 detectors.
	if model.NumDet != 9 {
		t.Errorf("detectors %d, want 9", model.NumDet)
	}
	if model.NumObs != 1 {
		t.Errorf("observables %d", model.NumObs)
	}
	if model.NumMech() < 20 {
		t.Errorf("suspiciously few mechanisms: %d", model.NumMech())
	}
}

func TestMemoryDEMDataFaultSignature(t *testing.T) {
	// A pre-round data fault must flip exactly the qubit's checks in its
	// own round and nothing else; such a mechanism must exist in the DEM.
	c := steane(t)
	model, err := MemoryDEM(c, Params{P: 0.001}, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := c.HZ
	m := h.Rows()
	for q := 0; q < c.N; q++ {
		want := h.Col(q).Ones() // round-0 detectors
		found := false
		for j := 0; j < model.NumMech(); j++ {
			sup := model.Mech.ColSpan(j)
			if len(sup) != len(want) {
				continue
			}
			ok := true
			for i := range sup {
				if int(sup[i]) != want[i] {
					ok = false
					break
				}
			}
			if ok {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no mechanism with round-0 support of qubit %d", q)
		}
	}
	_ = m
}

func TestMemoryDEMMeasurementStraddle(t *testing.T) {
	c := steane(t)
	model, err := MemoryDEM(c, Params{P: 0.001}, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := c.HZ.Rows()
	// A mechanism with signature {chk, chk+m} (measurement error round 0)
	// must exist and carry no observable.
	for chk := 0; chk < m; chk++ {
		found := false
		for j := 0; j < model.NumMech(); j++ {
			sup := model.Mech.ColSpan(j)
			if len(sup) == 2 && int(sup[0]) == chk && int(sup[1]) == chk+m {
				if len(model.Obs.ColSpan(j)) != 0 {
					t.Fatal("measurement mechanism flips an observable")
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no measurement mechanism for check %d", chk)
		}
	}
}

func TestMemoryDEMSignaturesAreMerged(t *testing.T) {
	// No two mechanisms share (detector, observable) signatures.
	c := steane(t)
	model, err := MemoryDEM(c, Params{P: 0.002}, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for j := 0; j < model.NumMech(); j++ {
		k := fmt.Sprint(model.Mech.ColSpan(j), model.Obs.ColSpan(j))
		if seen[k] {
			t.Fatalf("duplicate signature at mechanism %d", j)
		}
		seen[k] = true
	}
}

func TestMemoryDEMSamplingConsistency(t *testing.T) {
	// Sampled syndromes and observables must be reproducible through the
	// dense check matrix (the dem invariants hold for circuit DEMs too).
	c := steane(t)
	model, err := MemoryDEM(c, Params{P: 0.01}, 2)
	if err != nil {
		t.Fatal(err)
	}
	H := model.CheckMatrix()
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 30; i++ {
		e := model.Sample(rng)
		if !model.Syndrome(e).Equal(H.MulVec(e)) {
			t.Fatal("syndrome mismatch")
		}
	}
}

func TestDedup(t *testing.T) {
	got := dedup([]int{1, 2, 2, 3, 3, 3})
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("dedup = %v", got)
	}
	if out := dedup(nil); len(out) != 0 {
		t.Error("dedup(nil) nonzero")
	}
}

func TestBuilderMergeProbability(t *testing.T) {
	b := newBuilder()
	b.add([]int{1, 2}, nil, 0.1)
	b.add([]int{2, 1}, nil, 0.1) // same signature, different order
	if len(b.list) != 1 {
		t.Fatalf("expected merge, got %d mechanisms", len(b.list))
	}
	// XOR convolution: 0.1·0.9 + 0.9·0.1 = 0.18.
	if diff := b.prob[0] - 0.18; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("merged prob %v, want 0.18", b.prob[0])
	}
}
