package gf2

import (
	"math/rand/v2"
	"testing"
)

func TestTransposeBits64(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	var a, orig [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
	}
	orig = a
	TransposeBits64(&a)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if a[i]>>uint(j)&1 != orig[j]>>uint(i)&1 {
				t.Fatalf("transpose: out[%d] bit %d != in[%d] bit %d", i, j, j, i)
			}
		}
	}
	// Involution: transposing twice restores the input.
	TransposeBits64(&a)
	if a != orig {
		t.Fatal("transpose is not an involution")
	}
}

// TestPackUnpackLanes checks PackLanesInto against its definition:
// dst[i] bit l = srcs[l] bit i, absent lanes zero.
func TestPackUnpackLanes(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 11))
	for _, n := range []int{1, 7, 63, 64, 65, 130, 200} {
		for _, lanes := range []int{1, 3, 63, 64} {
			srcs := make([]Vec, lanes)
			for l := range srcs {
				srcs[l] = NewVec(n)
				for i := 0; i < n; i++ {
					srcs[l].Set(i, rng.Uint64()&1 == 1)
				}
			}
			packed := make([]uint64, n)
			PackLanesInto(packed, srcs)
			for i := 0; i < n; i++ {
				for l := 0; l < lanes; l++ {
					if packed[i]>>uint(l)&1 == 1 != srcs[l].Get(i) {
						t.Fatalf("n=%d lanes=%d: packed[%d] lane %d mismatch", n, lanes, i, l)
					}
				}
				// Lanes beyond len(srcs) must read as zero.
				if lanes < 64 && packed[i]>>uint(lanes) != 0 {
					t.Fatalf("n=%d lanes=%d: packed[%d] has bits beyond lane %d", n, lanes, i, lanes)
				}
			}
		}
	}
}

func TestPackLanesPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	srcs := []Vec{NewVec(10), NewVec(9)}
	mustPanic("length mismatch", func() { PackLanesInto(make([]uint64, 10), srcs) })
	mustPanic("short dst", func() { PackLanesInto(make([]uint64, 5), []Vec{NewVec(10)}) })
}
