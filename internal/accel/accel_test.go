package accel

import (
	"testing"
	"time"

	"vegapunk/internal/code"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/hier"
)

func bbDecoupling(t *testing.T, idx int) *decouple.Decoupling {
	t.Helper()
	c, err := code.NewBBByIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CircuitLevel(c, 0.001)
	dec, err := decouple.Decouple(model.CheckMatrix(), decouple.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestVegapunkLatencySubMicrosecond(t *testing.T) {
	// The headline claim: worst-case decode below 1 µs for BB codes.
	p := DefaultParams()
	dec := bbDecoupling(t, 0)
	rep := p.WorstCase(dec, hier.Config{MaxIters: 3})
	if rep.Latency >= time.Microsecond {
		t.Errorf("worst-case latency %v not under 1µs", rep.Latency)
	}
	if rep.Latency < 100*time.Nanosecond {
		t.Errorf("latency %v implausibly small", rep.Latency)
	}
	if rep.Cycles != int(rep.Latency.Nanoseconds()/4) {
		t.Error("cycles/latency inconsistent with 250 MHz")
	}
}

func TestLatencyScalesWithIterations(t *testing.T) {
	p := DefaultParams()
	dec := bbDecoupling(t, 0)
	prev := 0
	for m := 1; m <= 7; m++ {
		rep := p.VegapunkLatency(dec, m, 3)
		if rep.Cycles <= prev {
			t.Fatalf("latency not increasing with M: %d after %d", rep.Cycles, prev)
		}
		// Linear growth (Figure 13a): per-iteration increment constant.
		if m >= 2 {
			inc := rep.Cycles - prev
			base := p.VegapunkLatency(dec, 2, 3).Cycles - p.VegapunkLatency(dec, 1, 3).Cycles
			if inc != base {
				t.Fatalf("nonlinear growth: inc %d vs %d", inc, base)
			}
		}
		prev = rep.Cycles
	}
}

func TestFromTraceUsesObservedIterations(t *testing.T) {
	p := DefaultParams()
	dec := bbDecoupling(t, 0)
	short := p.FromTrace(dec, hier.Trace{OuterIters: 1, MaxInnerIters: 1})
	long := p.FromTrace(dec, hier.Trace{OuterIters: 3, MaxInnerIters: 3})
	if short.Latency >= long.Latency {
		t.Error("trace latency ordering wrong")
	}
	// Empty trace still produces at least one round.
	zero := p.FromTrace(dec, hier.Trace{})
	if zero.Cycles <= 0 {
		t.Error("empty trace produced no cycles")
	}
}

func TestBPLatencyModel(t *testing.T) {
	p := DefaultParams()
	// 82 iterations ≈ the paper's 694ns for BB [[72,12,6]].
	got := p.BPLatency(82)
	if got < 600*time.Nanosecond || got > 800*time.Nanosecond {
		t.Errorf("BP latency %v outside the calibration band", got)
	}
	// Monotone in iterations.
	if p.BPLatency(200) <= p.BPLatency(100) {
		t.Error("BP latency not monotone")
	}
}

func TestUtilizationCalibration(t *testing.T) {
	p := DefaultParams()
	dec := bbDecoupling(t, 0)
	u := p.VegapunkUtilization(dec)
	// Paper Table 4 for [[72,12,6]]: 13388 FFs (0.77%), 37496 LUTs
	// (4.30%). Our decoupling differs in detail; require the same order
	// of magnitude and sub-10% utilization.
	if u.FFs < 8000 || u.FFs > 30000 {
		t.Errorf("FF estimate %d far from paper's 13388", u.FFs)
	}
	if u.LUTPct > 15 || u.FFPct > 5 {
		t.Errorf("utilization %f%%/%f%% implausible for the small code", u.FFPct, u.LUTPct)
	}
	if u.FFPct <= 0 || u.LUTPct <= 0 {
		t.Error("utilization percentages must be positive")
	}
}

func TestUtilizationGrowsWithCodeSize(t *testing.T) {
	if testing.Short() {
		t.Skip("large decoupling in -short mode")
	}
	p := DefaultParams()
	small := p.VegapunkUtilization(bbDecoupling(t, 0))
	big := p.VegapunkUtilization(bbDecoupling(t, 3)) // [[144,12,12]]
	if big.LUTs <= small.LUTs || big.FFs <= small.FFs {
		t.Error("resources must grow with code size")
	}
}

func TestMaxSupportedColumns(t *testing.T) {
	p := DefaultParams()
	got := p.MaxSupportedColumns(3)
	// Paper §6.3: ≈1.26×10⁴ columns at 100% LUTs.
	if got < 3000 || got > 30000 {
		t.Errorf("capacity %d far from the paper's ~12600", got)
	}
}

func TestLatencyInsensitiveToSizeSensitiveToSparsity(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple decouplings in -short mode")
	}
	p := DefaultParams()
	d72 := bbDecoupling(t, 0)
	d144 := bbDecoupling(t, 3)
	l72 := p.WorstCase(d72, hier.Config{}).Latency
	l144 := p.WorstCase(d144, hier.Config{}).Latency
	// Column count doubles; latency must grow by far less (log terms
	// only) — the paper's key scaling claim.
	ratio := float64(l144) / float64(l72)
	if ratio > 1.5 {
		t.Errorf("latency ratio %v too steep for 2x columns", ratio)
	}
}
