// Package gf2 implements linear algebra over the two-element field GF(2).
//
// It provides bit-packed dense matrices and vectors, sparse column/row
// views, Gaussian elimination, rank, inverse, null spaces, Kronecker
// products and permutations. All higher layers of the Vegapunk
// reproduction (code construction, decoders, the offline decoupler) are
// built on this package.
package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// wordsFor returns the number of 64-bit words needed to hold n bits.
func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Vec is a bit vector over GF(2). The zero value is an empty vector;
// use NewVec to create a vector of a given length.
type Vec struct {
	n int
	w []uint64
}

// NewVec returns an all-zero vector of length n.
func NewVec(n int) Vec {
	if n < 0 {
		panic("gf2: negative vector length")
	}
	return Vec{n: n, w: make([]uint64, wordsFor(n))}
}

// VecFromInts builds a vector from a slice of 0/1 integers.
func VecFromInts(bits []int) Vec {
	v := NewVec(len(bits))
	for i, b := range bits {
		if b != 0 {
			v.Set(i, true)
		}
	}
	return v
}

// VecFromSupport builds a length-n vector with ones at the given indices.
func VecFromSupport(n int, support []int) Vec {
	v := NewVec(n)
	for _, i := range support {
		v.Set(i, true)
	}
	return v
}

// Len returns the number of bits in the vector.
func (v Vec) Len() int { return v.n }

// Get reports whether bit i is set.
func (v Vec) Get(i int) bool {
	return v.w[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set assigns bit i.
func (v Vec) Set(i int, b bool) {
	if b {
		v.w[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.w[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Flip toggles bit i.
func (v Vec) Flip(i int) {
	v.w[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// Word returns the i-th 64-bit word of the packed storage (bits
// 64i..64i+63). Hot loops over short vectors hoist the word into a
// register instead of calling Get per bit.
func (v Vec) Word(i int) uint64 { return v.w[i] }

// SetWord overwrites the i-th 64-bit word. The caller must keep bits
// beyond Len() zero (every other Vec operation relies on that
// invariant).
func (v Vec) SetWord(i int, w uint64) { v.w[i] = w }

// Xor adds (XORs) u into v in place. The lengths must match.
func (v Vec) Xor(u Vec) {
	if v.n != u.n {
		panic(fmt.Sprintf("gf2: Xor length mismatch %d != %d", v.n, u.n))
	}
	for i, w := range u.w {
		v.w[i] ^= w
	}
}

// Weight returns the number of set bits (Hamming weight).
func (v Vec) Weight() int {
	t := 0
	for _, w := range v.w {
		t += bits.OnesCount64(w)
	}
	return t
}

// IsZero reports whether all bits are zero.
func (v Vec) IsZero() bool {
	for _, w := range v.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and u hold identical bits.
func (v Vec) Equal(u Vec) bool {
	if v.n != u.n {
		return false
	}
	for i, w := range u.w {
		if v.w[i] != w {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	c := Vec{n: v.n, w: make([]uint64, len(v.w))}
	copy(c.w, v.w)
	return c
}

// CopyVec copies src into *dst, reusing dst's storage when the lengths
// already match and reallocating otherwise. This is the pool-boundary
// copy-out helper: a decoder's returned vector is only valid until the
// next Decode on the same instance, so any result that escapes the
// goroutine (or pool slot) owning the decoder must be copied first.
// With a reused dst the steady state is allocation-free.
func CopyVec(dst *Vec, src Vec) {
	if dst.n != src.n || len(dst.w) != len(src.w) {
		*dst = src.Clone()
		return
	}
	copy(dst.w, src.w)
}

// CopyFrom overwrites v with the bits of u. Lengths must match.
func (v Vec) CopyFrom(u Vec) {
	if v.n != u.n {
		panic("gf2: CopyFrom length mismatch")
	}
	copy(v.w, u.w)
}

// Zero clears every bit.
func (v Vec) Zero() {
	for i := range v.w {
		v.w[i] = 0
	}
}

// Ones returns the indices of the set bits in increasing order.
func (v Vec) Ones() []int {
	return v.AppendOnes(make([]int, 0, v.Weight()))
}

// AppendOnes appends the indices of the set bits (increasing order) to
// dst and returns the extended slice. With a caller-owned dst of
// sufficient capacity this allocates nothing — the hot-path variant of
// Ones.
func (v Vec) AppendOnes(dst []int) []int {
	for wi, w := range v.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*wordBits+b)
			w &= w - 1
		}
	}
	return dst
}

// WeightSum returns Σ w[i] over the set bits i of v. w must cover
// Len() entries.
func (v Vec) WeightSum(w []float64) float64 {
	sum := 0.0
	for wi, word := range v.w {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			sum += w[wi*wordBits+b]
			word &= word - 1
		}
	}
	return sum
}

// Slice returns a copy of bits [lo, hi) as a new vector.
func (v Vec) Slice(lo, hi int) Vec {
	if lo < 0 || hi > v.n || lo > hi {
		panic("gf2: Slice out of range")
	}
	out := NewVec(hi - lo)
	for i := lo; i < hi; i++ {
		if v.Get(i) {
			out.Set(i-lo, true)
		}
	}
	return out
}

// String renders the vector as a 0/1 string, e.g. "10110".
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Ints returns the vector as a slice of 0/1 ints, convenient for tests.
func (v Vec) Ints() []int {
	out := make([]int, v.n)
	for i := range out {
		if v.Get(i) {
			out[i] = 1
		}
	}
	return out
}
