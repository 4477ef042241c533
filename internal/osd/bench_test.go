package osd

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// benchFixture is an OSD-CS(7) decoder (the paper's BP+OSD
// configuration) on the BB [[72,12,6]] circuit-level model with 16
// sampled syndromes, each with its own noisy soft input.
func benchFixture(tb testing.TB) (d *Decoder, syns []gf2.Vec, softs [][]float64) {
	tb.Helper()
	c, err := code.NewBBByIndex(0)
	if err != nil {
		tb.Fatal(err)
	}
	model := dem.CircuitLevel(c, 0.003)
	llr := model.LLRs()
	d = New(model.Mech, llr, Config{Order: 7})
	rng := rand.New(rand.NewPCG(31, 1))
	syns = make([]gf2.Vec, 16)
	softs = make([][]float64, 16)
	for i := range syns {
		syns[i] = model.Syndrome(model.Sample(rng))
		softs[i] = make([]float64, len(llr))
		for j := range softs[i] {
			softs[i][j] = llr[j] + rng.NormFloat64()
		}
	}
	return d, syns, softs
}

// BenchmarkOSDDecode measures a steady-state OSD-CS(7) decode;
// TestDecodeAllocatesNothing holds it at 0 allocs/op.
func BenchmarkOSDDecode(b *testing.B) {
	d, syns, softs := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(syns)
		d.Decode(syns[k], softs[k])
	}
}

// TestDecodeAllocatesNothing pins the benchmark's steady state at zero
// allocations: elimination, the combination sweep and the answer all
// run in the decoder's reserved scratch.
func TestDecodeAllocatesNothing(t *testing.T) {
	d, syns, softs := benchFixture(t)
	i := 0
	if n := testing.AllocsPerRun(32, func() {
		k := i % len(syns)
		d.Decode(syns[k], softs[k])
		i++
	}); n != 0 {
		t.Errorf("Decode allocates %v per call", n)
	}
}
