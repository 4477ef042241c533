// Package vegapunk_test holds the module's end-to-end checks: each one
// walks a whole user flow (code → noise → offline stage → decoder →
// evaluation or serving) across the internal packages, the way
// cmd/vegapunk, cmd/experiments and vegapunkd put them together. The
// module root has no library package; these checks are its only files.
package vegapunk_test

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"vegapunk/internal/accel"
	"vegapunk/internal/code"
	"vegapunk/internal/core"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
	"vegapunk/internal/serve"
	"vegapunk/internal/sim"
)

// NewVegapunk runs the offline stage on the model's check matrix and
// builds the online decoder from the artifact.
func NewVegapunk(model *dem.Model, cfg hier.Config) (core.Decoder, error) {
	art, err := decouple.Decouple(model.CheckMatrix(), decouple.Options{})
	if err != nil {
		return nil, err
	}
	return core.NewVegapunkFrom(model, art, cfg), nil
}

func TestPublicQuickstartFlow(t *testing.T) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 72 || c.K != 12 {
		t.Fatalf("BB code 0 = [[%d,%d]]", c.N, c.K)
	}
	model := dem.CircuitLevel(c, 0.004)
	dec, err := NewVegapunk(model, hier.Config{MaxIters: 3})
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
			t.Fatal("decode violated syndrome")
		}
		if stats.Hier.OuterIters < 1 {
			t.Fatal("stats not propagated")
		}
	}
}

func TestPublicRegistryCounts(t *testing.T) {
	if len(code.BBRegistry) != 6 || len(code.HPRegistry) != 6 {
		t.Errorf("registry counts %d/%d, want 6/6", len(code.BBRegistry), len(code.HPRegistry))
	}
	for i := 0; i < 2; i++ {
		if _, err := code.NewHPByIndex(i); err != nil {
			t.Errorf("HP code %d: %v", i, err)
		}
	}
}

func TestPublicCustomHP(t *testing.T) {
	c, err := code.NewHP("custom", code.Circulant(5, []int{0, 1}), code.Circulant(5, []int{0, 1}), 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 50 || c.K != 2 {
		t.Errorf("custom HP = [[%d,%d]], want [[50,2]]", c.N, c.K)
	}
}

func TestPublicRunMemoryAndBaselines(t *testing.T) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CircuitLevel(c, 0.003)
	for _, mk := range []core.Factory{
		func() core.Decoder { return core.NewBP(model, 50) },
		func() core.Decoder { return core.NewBPOSD(model, 50, 7) },
		func() core.Decoder { return core.NewBPLSD(model) },
	} {
		res := sim.RunMemory(model, mk, sim.MemoryConfig{Rounds: 2, Shots: 30, Seed: 5})
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
	fit, err := sim.FitThreshold(ps, pls)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Pt-pt) > 1e-9 {
		t.Errorf("fit pt = %v", fit.Pt)
	}
}

func TestPublicAccelerator(t *testing.T) {
	params := accel.DefaultParams()
	if params.BPLatency(100) <= 0 {
		t.Error("BP latency model broken")
	}
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CircuitLevel(c, 0.001)
	art, err := decouple.Decouple(model.CheckMatrix(), decouple.Options{})
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
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CodeCapacity(c, 0.01)
	srv := serve.NewServer(serve.Config{MaxBatch: 4})
	key := serve.ModelKey("BB [[72,12,6]]", "BP", 0.01)
	svc, err := srv.Register(key, model, "BP(30)", func() core.Decoder { return core.NewBP(model, 30) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	rng := rand.New(rand.NewPCG(5, 6))
	ref := core.NewBP(model, 30)
	var res serve.Result
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

// ExampleNewVegapunk shows the end-to-end decode flow: build a code,
// attach noise, run the offline decoupling, decode a syndrome.
func ExampleNewVegapunk() {
	c, _ := code.NewBBByIndex(0) // [[72,12,6]]
	model := dem.CircuitLevel(c, 0.001)
	dec, _ := NewVegapunk(model, hier.Config{MaxIters: 3})

	// A single measurement error on check 7.
	err := gf2.NewVec(model.NumMech())
	err.Set(4*c.N+7, true)
	syndrome := model.Syndrome(err)
	est, _ := dec.Decode(syndrome)
	fmt.Println("syndrome satisfied:", model.CheckMatrix().MulVec(est).Equal(syndrome))
	fmt.Println("observables preserved:", model.Observables(est).Equal(model.Observables(err)))
	// Output:
	// syndrome satisfied: true
	// observables preserved: true
}

// ExampleDecouple demonstrates the offline stage on a hypergraph product
// code, where the paper's analytic block structure (K = t) is recovered.
func ExampleDecouple() {
	c, _ := code.NewHPByIndex(0) // [[162,2,4]]
	model := dem.Phenomenological(c, 0.001, 0.001)
	art, _ := decouple.Decouple(model.CheckMatrix(), decouple.Options{HintKs: []int{9}})
	fmt.Printf("K=%d blocks of [%d,%d], A has %d columns\n", art.K, art.MD, art.ND, art.NA)
	fmt.Println("valid:", art.Validate(model.CheckMatrix()) == nil)
	// Output:
	// K=9 blocks of [9,18], A has 81 columns
	// valid: true
}

// ExampleFitThreshold fits the paper's Eq. 17 to synthetic data.
func ExampleFitThreshold() {
	ps := []float64{5e-4, 1e-3, 2e-3, 5e-3}
	pls := []float64{2.5e-5, 1e-4, 4e-4, 2.5e-3} // slope 2 through pt = 0.01
	fit, _ := sim.FitThreshold(ps, pls)
	fmt.Printf("threshold %.3f%%, slope %.1f\n", 100*fit.Pt, fit.K)
	// Output:
	// threshold 1.000%, slope 2.0
}
