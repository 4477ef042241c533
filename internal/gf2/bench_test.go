package gf2

import (
	"math/rand/v2"
	"testing"
)

// benchFixture approximates a circuit-level BB check matrix's shape:
// a few hundred detectors, a few thousand sparse mechanism columns.
func benchFixture() (*Dense, *CSC, *CSR, Vec, Vec) {
	rng := rand.New(rand.NewPCG(7, 8))
	m, n := 144, 2000
	d := NewDense(m, n)
	for j := 0; j < n; j++ {
		for k := 0; k < 4; k++ {
			d.Set(rng.IntN(m), j, true)
		}
	}
	c := CSCFromDense(d)
	x := randomVec(rng, n, 0.01)
	out := NewVec(m)
	return d, c, CSRFromCSC(c), x, out
}

func BenchmarkCSCMulVec(b *testing.B) {
	_, csc, _, x, out := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csc.MulVecInto(out, x)
	}
}

func BenchmarkCSRMulVec(b *testing.B) {
	_, _, csr, x, out := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.MulVecInto(out, x)
	}
}

func BenchmarkCSCFromDense(b *testing.B) {
	d, _, _, _, _ := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CSCFromDense(d)
	}
}
