package bp

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// benchFixture is the decoder and syndrome pool a decode benchmark
// cycles through on the BB [[72,12,6]] circuit-level model: BP(30) with
// legs relay legs, over sampled syndromes for plain BP and, for relay,
// over syndromes that all leave leg 0 unsolved — the one in ten that
// plain BP(30) spends thirty iterations on and still gets wrong.
func benchFixture(tb testing.TB, legs int) (*Decoder, []gf2.Vec) {
	tb.Helper()
	c, err := code.NewBBByIndex(0)
	if err != nil {
		tb.Fatal(err)
	}
	model := dem.CircuitLevel(c, 0.003)
	d := New(model.Mech, model.LLRs(), Config{MaxIters: 30, Legs: legs})
	if legs > 0 {
		return d, unsolvedSyndromes(tb, model, 30, 64, 11)
	}
	rng := rand.New(rand.NewPCG(11, 1))
	syns := make([]gf2.Vec, 64)
	for i := range syns {
		syns[i] = model.Syndrome(model.Sample(rng))
	}
	return d, syns
}

// BenchmarkBPDecode measures a steady-state min-sum decode;
// TestDecodeAllocatesNothing holds it at 0 allocs/op.
func BenchmarkBPDecode(b *testing.B) { benchDecode(b, 0) }

// BenchmarkBPDecodeRelay measures a Relay-BP decode over syndromes that
// all need the memory legs; TestDecodeAllocatesNothing holds it at
// 0 allocs/op.
func BenchmarkBPDecodeRelay(b *testing.B) { benchDecode(b, 8) }

func benchDecode(b *testing.B, legs int) {
	d, syns := benchFixture(b, legs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decode(syns[i%len(syns)])
	}
}

// TestDecodeAllocatesNothing pins both decode benchmarks' steady state
// at zero allocations: a decode reuses the decoder's messages, hard
// decisions and relay scratch.
func TestDecodeAllocatesNothing(t *testing.T) {
	for _, legs := range []int{0, 8} {
		d, syns := benchFixture(t, legs)
		i := 0
		if n := testing.AllocsPerRun(64, func() {
			d.Decode(syns[i%len(syns)])
			i++
		}); n != 0 {
			t.Errorf("legs %d: Decode allocates %v per call", legs, n)
		}
	}
}
