package decouple

import "math/bits"

// bitvec is a packed row-index set: one column of D, or a combination
// of columns during elimination.
type bitvec []uint64

func (v bitvec) xor(u bitvec) {
	for i, w := range u {
		v[i] ^= w
	}
}

func (v bitvec) lead() int {
	for wi, w := range v {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// echelon is an incrementally-built basis in echelon form: every vector
// is zero at the leads of the vectors added before it. The vectors are
// stored end to end, and each lead as the word that holds it and the
// mask that selects it.
type echelon struct {
	vecs    []uint64
	leadW   []int
	leadM   []uint64
	scratch bitvec
}

// residual reduces v against the basis and returns the remainder, held
// in a buffer the next residual or add call overwrites.
func (e *echelon) residual(v bitvec) bitvec {
	words := len(v)
	if len(e.scratch) != words {
		e.scratch = make(bitvec, words)
	}
	r := e.scratch
	copy(r, v)
	for i, w := range e.leadW {
		if r[w]&e.leadM[i] != 0 {
			r.xor(e.vecs[i*words : (i+1)*words])
		}
	}
	return r
}

// add inserts v if independent; reports whether it was added.
func (e *echelon) add(v bitvec) bool {
	r := e.residual(v)
	lead := r.lead()
	if lead < 0 {
		return false
	}
	e.vecs = append(e.vecs, r...)
	e.leadW = append(e.leadW, lead/64)
	e.leadM = append(e.leadM, 1<<(uint(lead)%64))
	return true
}

func (e *echelon) dim() int { return len(e.leadW) }

// wordsFor mirrors gf2's packing (kept local to avoid exporting it).
func wordsFor(n int) int { return (n + 63) / 64 }
