package gf2

// Bit-sliced lane layout: one uint64 word per original bit position,
// with bit l holding the value of vector ("lane") l of up to 64. In that
// layout a CSR parity sweep or a residual XOR serves all 64 lanes with
// one pass over the indices. Converting the row-major Vec layout into it
// is a 64×64 bit-matrix transpose per block of 64 bit positions
// (TransposeBits64), which PackLanesInto wraps for a slice of vectors.
//
// No decoder uses the layout: the 64-lane kernels of bp and hier lost
// their trials to a loop over the scalar kernels and were deleted. The
// file stays for benchmark/ledger.go, which is frozen and times
// PackLanesInto for its gf2.pack64_ns row.

// MaxLanes is the lane capacity of the bit-sliced layout: one lane per
// bit of a machine word.
const MaxLanes = 64

// TransposeBits64 transposes a 64×64 bit matrix in place: afterwards
// bit j of word i equals the former bit i of word j. This is the
// classic recursive block-swap transpose (Hacker's Delight 7-3),
// log₂(64) = 6 passes of masked swaps.
func TransposeBits64(a *[64]uint64) {
	// m masks the bit positions b with b&j == 0; the inner swap moves
	// bit b+j of word k onto bit b of word k|j and back (LSB-first
	// orientation, so the result is the true transpose, not the
	// anti-diagonal flip of the MSB-first textbook version).
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; {
		for k := 0; k < 64; k = ((k | j) + 1) &^ j {
			t := ((a[k] >> uint(j)) ^ a[k|j]) & m
			a[k] ^= t << uint(j)
			a[k|j] ^= t
		}
		j >>= 1
		m ^= m << uint(j)
	}
}

// PackLanesInto packs up to 64 equal-length vectors into the bit-sliced
// layout: dst[i] bit l = srcs[l] bit i. dst must have one word per bit
// position (srcs[0].Len() entries); missing lanes (len(srcs) < 64) read
// as zero. The vectors must all share one length.
func PackLanesInto(dst []uint64, srcs []Vec) {
	if len(srcs) == 0 {
		return
	}
	n := srcs[0].Len()
	if len(srcs) > MaxLanes {
		panic("gf2: PackLanesInto with more than 64 lanes")
	}
	if len(dst) < n {
		panic("gf2: PackLanesInto dst too short")
	}
	var blk [64]uint64
	words := wordsFor(n)
	for wi := 0; wi < words; wi++ {
		for l := range blk {
			blk[l] = 0
		}
		for l, v := range srcs {
			if v.Len() != n {
				panic("gf2: PackLanesInto length mismatch")
			}
			blk[l] = v.Word(wi)
		}
		TransposeBits64(&blk)
		base := wi * wordBits
		hi := n - base
		if hi > wordBits {
			hi = wordBits
		}
		copy(dst[base:base+hi], blk[:hi])
	}
}
