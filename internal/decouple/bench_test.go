package decouple

import "testing"

// BenchmarkDecouple times the whole offline search (the view, every K
// its coverage bound leaves, their row partitions and plans, and the
// build and validation of the winning K only) on the two circuit-level
// check matrices the repo benchmark's Vegapunk workloads decouple; it is
// the kernel-level number next to the benchmark's decouple.decouple_s.
func BenchmarkDecouple(b *testing.B) {
	for _, bc := range []struct {
		name string
		idx  int
	}{{"BB72", 0}, {"BB144", 3}} {
		b.Run(bc.name, func(b *testing.B) {
			D := bbCircuit(bc.idx)(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decouple(D, Options{Seed: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
