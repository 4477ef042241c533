package osd

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// BenchmarkOSDDecode measures a steady-state OSD-CS(7) decode (the
// paper's BP+OSD configuration) on the BB [[72,12,6]] circuit-level
// model; it must report 0 allocs/op.
func BenchmarkOSDDecode(b *testing.B) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		b.Fatal(err)
	}
	model := dem.CircuitLevel(c, 0.003)
	llr := model.LLRs()
	d := New(model.Mech, llr, Config{Method: CombinationSweep, Order: 7})
	rng := rand.New(rand.NewPCG(31, 1))
	syns := make([]gf2.Vec, 16)
	softs := make([][]float64, 16)
	for i := range syns {
		syns[i] = model.Syndrome(model.Sample(rng))
		softs[i] = make([]float64, len(llr))
		for j := range softs[i] {
			softs[i][j] = llr[j] + rng.NormFloat64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(syns)
		d.Decode(syns[k], softs[k])
	}
}
