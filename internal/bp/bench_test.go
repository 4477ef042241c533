package bp

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

func benchSyndromes(b *testing.B, model *dem.Model, count int) []gf2.Vec {
	b.Helper()
	rng := rand.New(rand.NewPCG(11, 1))
	out := make([]gf2.Vec, count)
	for i := range out {
		out[i] = model.Syndrome(model.Sample(rng))
	}
	return out
}

func benchModel(b *testing.B) *dem.Model {
	b.Helper()
	c, err := code.NewBBByIndex(0)
	if err != nil {
		b.Fatal(err)
	}
	return dem.CircuitLevel(c, 0.003)
}

// BenchmarkBPDecode measures a steady-state min-sum decode on the BB
// [[72,12,6]] circuit-level model; it must report 0 allocs/op.
func BenchmarkBPDecode(b *testing.B) {
	model := benchModel(b)
	d := New(model.Mech, model.LLRs(), Config{MaxIters: 30})
	syns := benchSyndromes(b, model, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decode(syns[i%len(syns)])
	}
}

// BenchmarkBPDecodeRelay measures a Relay-BP decode over syndromes that
// all leave leg 0 unsolved — the one in ten that plain BP(30) spends
// thirty iterations on and still gets wrong; it must report 0 allocs/op.
func BenchmarkBPDecodeRelay(b *testing.B) {
	model := benchModel(b)
	d := New(model.Mech, model.LLRs(), Config{MaxIters: 30, Legs: 8})
	syns := unsolvedSyndromes(b, model, 30, 64, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decode(syns[i%len(syns)])
	}
}
