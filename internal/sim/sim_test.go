package sim

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// perfectDecoder cheats: it stores the last sampled error via the model
// — not possible in reality, but here we use an OSD-quality proxy: a
// decoder that always returns the zero guess.
type zeroDecoder struct{ n int }

func (z zeroDecoder) Name() string { return "zero" }
func (z zeroDecoder) Decode(s gf2.Vec) (gf2.Vec, core.Stats) {
	return gf2.NewVec(z.n), core.Stats{}
}

func steaneModel(t *testing.T, p float64) *dem.Model {
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
	return dem.CodeCapacity(c, p)
}

func TestRunMemoryZeroNoise(t *testing.T) {
	// With a tiny p and the zero decoder, failures ≈ P(any qubit flips
	// an observable) — tiny but nonzero; with p→0 it must go to 0.
	model := steaneModel(t, 1e-9)
	res := RunMemory(model, func() core.Decoder { return zeroDecoder{model.NumMech()} },
		MemoryConfig{Rounds: 1, Shots: 500, Seed: 1})
	if res.Failures != 0 {
		t.Errorf("failures at p=1e-9: %d", res.Failures)
	}
	if res.Shots != 500 {
		t.Errorf("shots = %d", res.Shots)
	}
}

func TestRunMemoryZeroDecoderMatchesAnalytic(t *testing.T) {
	// Zero decoder on the Steane code: a shot fails iff the sampled
	// error anticommutes with the logical (odd # of flips on the 7-qubit
	// support... logical Z has weight 3 here). Just check LER is within
	// a loose window of the analytic single-round value.
	p := 0.05
	model := steaneModel(t, p)
	res := RunMemory(model, func() core.Decoder { return zeroDecoder{model.NumMech()} },
		MemoryConfig{Rounds: 1, Shots: 20000, Seed: 2, Workers: 4})
	// Analytic: observable flip probability for a weight-w logical:
	// P(odd flips among w qubits) = (1-(1-2p)^w)/2 with w = 3.
	want := (1 - math.Pow(1-2*p, 3)) / 2
	if math.Abs(res.LER-want) > 0.01 {
		t.Errorf("LER = %v, analytic %v", res.LER, want)
	}
	if res.CILow > res.LER || res.CIHigh < res.LER {
		t.Error("Wilson interval does not bracket the estimate")
	}
}

func TestRunMemoryMultiRoundAccumulates(t *testing.T) {
	// More rounds → higher overall LER for the zero decoder.
	model := steaneModel(t, 0.02)
	r1 := RunMemory(model, func() core.Decoder { return zeroDecoder{model.NumMech()} },
		MemoryConfig{Rounds: 1, Shots: 4000, Seed: 3})
	r5 := RunMemory(model, func() core.Decoder { return zeroDecoder{model.NumMech()} },
		MemoryConfig{Rounds: 5, Shots: 4000, Seed: 3})
	if r5.LER <= r1.LER {
		t.Errorf("5-round LER %v not above 1-round %v", r5.LER, r1.LER)
	}
	// Per-round rates should roughly agree.
	ratio := r5.PerRound / r1.PerRound
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("per-round rates inconsistent: %v vs %v", r5.PerRound, r1.PerRound)
	}
}

func TestRunMemoryEarlyStop(t *testing.T) {
	model := steaneModel(t, 0.3)
	res := RunMemory(model, func() core.Decoder { return zeroDecoder{model.NumMech()} },
		MemoryConfig{Rounds: 1, Shots: 100000, MaxFailures: 50, Seed: 4})
	if res.Shots >= 100000 {
		t.Error("early stop did not trigger")
	}
	if res.Failures < 50 {
		t.Errorf("stopped with only %d failures", res.Failures)
	}
}

// slowDecoder is zeroDecoder that yields its processor a thousand times
// per decode: the worker that owns it falls far behind the others.
type slowDecoder struct{ zeroDecoder }

func (d slowDecoder) Decode(s gf2.Vec) (gf2.Vec, core.Stats) {
	for range 1000 {
		runtime.Gosched()
	}
	return d.zeroDecoder.Decode(s)
}

// TestRunMemoryEarlyStopIgnoresScheduling slows one worker's decoder,
// then another's: an early stop that read a failure count shared across
// workers would let the fast worker end the slow one's run, and the
// result would depend on which worker was slow.
func TestRunMemoryEarlyStopIgnoresScheduling(t *testing.T) {
	model := steaneModel(t, 0.1)
	cfg := MemoryConfig{Rounds: 1, Shots: 100000, MaxFailures: 100, Workers: 2, Seed: 9}
	run := func(slow uint64) LERResult {
		var built atomic.Uint64
		return RunMemory(model, func() core.Decoder {
			if built.Add(1) == slow {
				return slowDecoder{zeroDecoder{model.NumMech()}}
			}
			return zeroDecoder{model.NumMech()}
		}, cfg)
	}
	want := run(0)
	if want.Failures < cfg.MaxFailures || want.Shots >= cfg.Shots {
		t.Fatalf("early stop: %d failures in %d shots", want.Failures, want.Shots)
	}
	for _, slow := range []uint64{1, 2} {
		if got := run(slow); got != want {
			t.Errorf("instance %d slowed: %+v, unslowed %+v", slow, got, want)
		}
	}
}

func TestPerRoundLER(t *testing.T) {
	if got := PerRoundLER(0, 5); got != 0 {
		t.Errorf("PerRoundLER(0) = %v", got)
	}
	if got := PerRoundLER(1, 5); got != 1 {
		t.Errorf("PerRoundLER(1) = %v", got)
	}
	// Inverse relation: 1-(1-x)^5 round-trips.
	x := 0.01
	pl := 1 - math.Pow(1-x, 5)
	if math.Abs(PerRoundLER(pl, 5)-x) > 1e-12 {
		t.Error("PerRoundLER does not invert the compounding")
	}
}

func TestWilson(t *testing.T) {
	lo, hi := Wilson(0, 100)
	if lo != 0 || hi < 0.01 || hi > 0.1 {
		t.Errorf("Wilson(0,100) = [%v, %v]", lo, hi)
	}
	lo, hi = Wilson(50, 100)
	if lo > 0.5 || hi < 0.5 {
		t.Error("Wilson(50,100) must bracket 0.5")
	}
	lo, hi = Wilson(0, 0)
	if lo != 0 || hi != 1 {
		t.Error("Wilson with no trials should be vacuous")
	}
}

func TestFitThresholdExact(t *testing.T) {
	// Generate exact Eq. 17 data: ln pL = k ln p + (1-k) ln pt.
	k, pt := 3.0, 0.008
	var ps, pls []float64
	for _, p := range []float64{5e-4, 1e-3, 2e-3, 5e-3} {
		lnPL := k*math.Log(p) + (1-k)*math.Log(pt)
		ps = append(ps, p)
		pls = append(pls, math.Exp(lnPL))
	}
	fit, err := FitThreshold(ps, pls)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Pt-pt) > 1e-9 || math.Abs(fit.K-k) > 1e-9 {
		t.Errorf("fit pt=%v k=%v, want %v %v", fit.Pt, fit.K, pt, k)
	}
	if !fit.EffectiveBelowThreshold() {
		t.Error("k=3 should be effective")
	}
	if fit.PtErr > 1e-6 {
		t.Errorf("exact data should give ~zero error, got %v", fit.PtErr)
	}
}

func TestFitThresholdSkipsZeros(t *testing.T) {
	ps := []float64{1e-3, 2e-3, 5e-3}
	pls := []float64{0, 1e-4, 1e-3} // first point unusable
	fit, err := FitThreshold(ps, pls)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Points != 2 {
		t.Errorf("Points = %d, want 2", fit.Points)
	}
}

func TestFitThresholdErrors(t *testing.T) {
	if _, err := FitThreshold([]float64{1e-3}, []float64{1e-4}); err == nil {
		t.Error("single point should fail")
	}
	if _, err := FitThreshold([]float64{1e-3, 1e-3}, []float64{1e-4, 1e-4}); err == nil {
		t.Error("degenerate x placement should fail")
	}
	if _, err := FitThreshold([]float64{1, 2}, []float64{1e-4}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestMeasureLatency(t *testing.T) {
	model := steaneModel(t, 0.05)
	res := MeasureLatency(model, zeroDecoder{model.NumMech()}, 200, 5)
	if res.Shots != 200 {
		t.Errorf("Shots = %d", res.Shots)
	}
	if res.Mean <= 0 || res.Max < res.Mean || res.P99 > res.Max {
		t.Errorf("latency summary implausible: %+v", res)
	}
}
