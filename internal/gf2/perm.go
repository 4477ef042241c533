package gf2

import (
	"fmt"
	"math/bits"
)

// Perm is a permutation of {0..n-1}. p[i] = j means position i of the
// output takes element j of the input, i.e. applying p to a vector v
// yields w with w[i] = v[p[i]].
type Perm []int

// Validate checks that p is a permutation.
func (p Perm) Validate() error {
	seen := make([]bool, len(p))
	for i, v := range p {
		if v < 0 || v >= len(p) {
			return fmt.Errorf("gf2: perm entry %d out of range at %d", v, i)
		}
		if seen[v] {
			return fmt.Errorf("gf2: perm entry %d duplicated", v)
		}
		seen[v] = true
	}
	return nil
}

// ApplyToSlice permutes a float slice: out[i] = xs[p[i]]. Used to carry per-column prior weights through the
// decoupler's column permutation.
func (p Perm) ApplyToSlice(xs []float64) []float64 {
	if len(xs) != len(p) {
		panic("gf2: Perm.ApplyToSlice length mismatch")
	}
	out := make([]float64, len(p))
	for i, src := range p {
		out[i] = xs[src]
	}
	return out
}

// PermuteCols returns a copy of m with columns permuted so that output
// column i is input column p[i] (i.e. m·Pᵀ). p must be a permutation:
// each set bit is moved once, through the inverse of p.
func (m *Dense) PermuteCols(p Perm) *Dense {
	if len(p) != m.cols {
		panic("gf2: PermuteCols length mismatch")
	}
	inv := make([]int32, len(p))
	for i, src := range p {
		inv[src] = int32(i)
	}
	out := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		dst := out.row(i)
		for wi, w := range m.row(i) {
			for w != 0 {
				j := inv[wi*wordBits+bits.TrailingZeros64(w)]
				w &= w - 1
				dst[j/wordBits] |= 1 << (uint(j) % wordBits)
			}
		}
	}
	return out
}
