package hier

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// benchSyndromes is the number of distinct syndromes a decode benchmark
// cycles through: enough that the pool does not fit the decoder's
// objective table as a handful of hot entries, so the number is the
// cost of syndromes the decoder has mostly not seen.
const benchSyndromes = 4096

// benchCodes are the circuit-level p = 0.003 models the decode
// benchmarks run as sub-benchmarks: the smallest BB code (MD = 12, one
// g word) and the benchmark's headline [[144,12,12]] (MD = 18, two g
// words).
var benchCodes = []struct {
	name  string
	index int
}{
	{"BB72", 0},
	{"BB144", 3},
}

func benchFixture(b *testing.B, index int) (*dem.Model, *decouple.Decoupling, []gf2.Vec) {
	b.Helper()
	model, dec := bbCircuitFixture(b, index, 0.003)
	rng := rand.New(rand.NewPCG(13, 1))
	syns := make([]gf2.Vec, benchSyndromes)
	for i := range syns {
		syns[i] = model.Syndrome(model.Sample(rng))
	}
	return model, dec, syns
}

// BenchmarkHierDecode measures a steady-state hierarchical decode on
// circuit-level BB models; it must report 0 allocs/op.
func BenchmarkHierDecode(b *testing.B) {
	for _, c := range benchCodes {
		b.Run(c.name, func(b *testing.B) {
			model, dec, syns := benchFixture(b, c.index)
			d := New(dec, model.LLRs(), Config{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Decode(syns[i%len(syns)])
			}
		})
	}
}

// BenchmarkGreedyGuess isolates one block decode, the accelerator GDC's
// software twin.
func BenchmarkGreedyGuess(b *testing.B) {
	model, dec, syns := benchFixture(b, 0)
	d := New(dec, model.LLRs(), Config{})
	sl := make([]uint64, d.fW)
	d.sliceInto(sl, dec.T.MulVec(syns[0]), 0)
	sol := newBlockSols(d, 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.greedyGuess(0, sl, &sol)
	}
}
