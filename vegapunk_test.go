package vegapunk

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	c, err := BBCode(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 72 || c.K != 12 {
		t.Fatalf("BBCode(0) = [[%d,%d]]", c.N, c.K)
	}
	model := CircuitLevelNoise(c, 0.004)
	dec, err := NewVegapunk(model, VegapunkOptions{MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	H := model.CheckMatrix()
	for i := 0; i < 15; i++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		est, stats := dec.Decode(s)
		if !H.MulVec(est).Equal(s) {
			t.Fatal("public API decode violated syndrome")
		}
		if stats.Hier.OuterIters < 1 {
			t.Fatal("stats not propagated")
		}
	}
}

func TestPublicRegistryCounts(t *testing.T) {
	if NumBBCodes() != 6 || NumHPCodes() != 6 {
		t.Errorf("registry counts %d/%d, want 6/6", NumBBCodes(), NumHPCodes())
	}
	for i := 0; i < 2; i++ {
		if _, err := HPCode(i); err != nil {
			t.Errorf("HPCode(%d): %v", i, err)
		}
	}
}

func TestPublicCustomHP(t *testing.T) {
	c, err := NewHPFromCirculants("custom", 5, []int{0, 1}, 5, []int{0, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 50 || c.K != 2 {
		t.Errorf("custom HP = [[%d,%d]], want [[50,2]]", c.N, c.K)
	}
}

func TestPublicSaveLoadDecoupling(t *testing.T) {
	c, err := HPCode(0)
	if err != nil {
		t.Fatal(err)
	}
	model := PhenomenologicalNoise(c, 0.002, 0.002)
	art, err := Decouple(model.CheckMatrix(), DecoupleOptions{HintKs: []int{9}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDecoupling(art, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDecoupling(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(model.CheckMatrix()); err != nil {
		t.Fatal(err)
	}
	dec := NewVegapunkWith(model, back, VegapunkOptions{})
	s := model.Syndrome(model.Sample(rand.New(rand.NewPCG(3, 4))))
	est, _ := dec.Decode(s)
	if !model.CheckMatrix().MulVec(est).Equal(s) {
		t.Fatal("decoder from loaded artifact violated syndrome")
	}
}

func TestPublicRunMemoryAndBaselines(t *testing.T) {
	c, err := BBCode(0)
	if err != nil {
		t.Fatal(err)
	}
	model := CircuitLevelNoise(c, 0.003)
	for _, mk := range []func() Decoder{
		func() Decoder { return NewBP(model, 50) },
		func() Decoder { return NewBPOSD(model, 50, 7) },
		func() Decoder { return NewBPLSD(model) },
		func() Decoder { return NewBPGD(model) },
	} {
		res := RunMemory(model, mk, MemoryConfig{Rounds: 2, Shots: 30, Seed: 5})
		if res.Shots != 30 {
			t.Errorf("%s: shots %d", mk().Name(), res.Shots)
		}
		if res.LER < 0 || res.LER > 1 {
			t.Errorf("%s: LER %v", mk().Name(), res.LER)
		}
	}
}

func TestPublicFitThreshold(t *testing.T) {
	k, pt := 2.5, 0.005
	var ps, pls []float64
	for _, p := range []float64{1e-3, 2e-3, 4e-3} {
		ps = append(ps, p)
		pls = append(pls, math.Exp(k*math.Log(p)+(1-k)*math.Log(pt)))
	}
	fit, err := FitThreshold(ps, pls)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Pt-pt) > 1e-9 {
		t.Errorf("fit pt = %v", fit.Pt)
	}
}

func TestPublicAccelerator(t *testing.T) {
	params := DefaultAccelerator()
	if params.BPLatency(100) <= 0 {
		t.Error("BP latency model broken")
	}
	c, err := BBCode(0)
	if err != nil {
		t.Fatal(err)
	}
	model := CircuitLevelNoise(c, 0.001)
	art, err := Decouple(model.CheckMatrix(), DecoupleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := params.VegapunkLatency(art, 3, 3)
	if rep.Latency.Microseconds() >= 1 {
		t.Errorf("worst-case latency %v not sub-µs", rep.Latency)
	}
	u := params.VegapunkUtilization(art)
	if u.LUTPct <= 0 || u.LUTPct > 100 {
		t.Errorf("utilization %v", u.LUTPct)
	}
}

func TestPublicDecodeServer(t *testing.T) {
	c, err := BBCode(0)
	if err != nil {
		t.Fatal(err)
	}
	model := CodeCapacityNoise(c, 0.01)
	srv := NewDecodeServer(ServeConfig{MaxBatch: 4})
	key := ServeModelKey("BB [[72,12,6]]", "BP", 0.01)
	svc, err := srv.Register(key, model, "BP(30)", func() Decoder { return NewBP(model, 30) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	rng := rand.New(rand.NewPCG(5, 6))
	ref := NewBP(model, 30)
	var res DecodeResult
	for i := 0; i < 10; i++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		if err := svc.DecodeInto(context.Background(), &res, s); err != nil {
			t.Fatal(err)
		}
		want, _ := ref.Decode(s)
		if !res.Correction.Equal(want) {
			t.Fatalf("decode %d: served correction differs from direct decode", i)
		}
	}
}
