package decouple

import (
	"fmt"
	"math/bits"
	"sort"
)

// bitvec is a packed row-index set: one column of D, or a combination
// of columns during elimination.
type bitvec []uint64

func (v bitvec) get(i int) bool { return v[i/64]>>(uint(i)%64)&1 == 1 }

func (v bitvec) isZero() bool {
	for _, w := range v {
		if w != 0 {
			return false
		}
	}
	return true
}

func (v bitvec) clone() bitvec {
	out := make(bitvec, len(v))
	copy(out, v)
	return out
}

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

func (v bitvec) weight() int {
	t := 0
	for _, w := range v {
		t += bits.OnesCount64(w)
	}
	return t
}

// echelon is an incrementally-built reduced basis.
type echelon struct {
	vecs    []bitvec
	leads   []int
	scratch bitvec
}

// residual reduces v against the basis and returns the remainder, held
// in a buffer the next residual, add or contains call overwrites.
func (e *echelon) residual(v bitvec) bitvec {
	if len(e.scratch) != len(v) {
		e.scratch = make(bitvec, len(v))
	}
	r := e.scratch
	copy(r, v)
	for i, b := range e.vecs {
		if r.get(e.leads[i]) {
			r.xor(b)
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
	e.vecs = append(e.vecs, r.clone())
	e.leads = append(e.leads, lead)
	return true
}

// contains reports whether v lies in the span.
func (e *echelon) contains(v bitvec) bool { return e.residual(v).isZero() }

func (e *echelon) dim() int { return len(e.vecs) }

// subspace is one summand W_i under construction.
type subspace struct {
	ech      echelon
	rawCols  []int // columns of D that are the basis vectors
	interior []int // non-basis columns contained in the span
}

// grow adds vec, carried by columns cols, to the basis: the first
// column owns the basis vector, its duplicates are interior.
func (s *subspace) grow(vec bitvec, cols []int) {
	s.ech.add(vec)
	s.rawCols = append(s.rawCols, cols[0])
	s.interior = append(s.interior, cols[1:]...)
}

// planSubspace searches for a decoupling with a *general* full-rank
// transformation, not just a block-local one: it seeks a direct-sum
// decomposition F₂^m = W₁ ⊕ … ⊕ W_K with dim(W_i) = m_D such that as
// many check-matrix columns as possible lie inside a single W_i. Taking
// T as the inverse of the stacked basis matrix maps each W_i to block
// i's coordinates: basis columns become the identity of D_i = (I | B),
// other interior columns become B, everything else lands in A. This
// realizes the paper's arbitrary-T SMT search (§4.2), which the
// row-partition strategies only approximate: here a column can be
// interior to a block even when its support is scattered across rows.
func planSubspace(v *searchView, K int) (*plan, error) {
	m := v.m
	if K < 2 || m%K != 0 {
		return nil, fmt.Errorf("decouple: subspace K=%d cannot tile m=%d", K, m)
	}
	mD := m / K
	var subs []*subspace
	global := &echelon{}

	// place homes a distinct column: interior to a subspace that already
	// spans it, else a new basis vector of the subspace with capacity
	// whose basis reduces it the most, below weight maxRes, provided it
	// is independent of everything placed so far.
	place := func(g colGroup, maxRes int) bool {
		for _, s := range subs {
			if s.ech.contains(g.vec) {
				s.interior = append(s.interior, g.cols...)
				return true
			}
		}
		best, bestRes := -1, maxRes
		for i, s := range subs {
			if s.ech.dim() >= mD {
				continue
			}
			if rw := s.ech.residual(g.vec).weight(); rw < bestRes {
				best, bestRes = i, rw
			}
		}
		if best >= 0 && global.add(g.vec) {
			subs[best].grow(g.vec, g.cols)
			return true
		}
		return false
	}
	// Distinct columns by frequency. Only a *related* subspace may grow
	// (residual lighter than the column itself); unrelated vectors open
	// new subspaces instead, keeping the planted structure of the column
	// space separated.
	var unplaced []colGroup
	for _, g := range v.distinct {
		if place(g, g.vec.weight()) {
			continue
		}
		if len(subs) < K && global.add(g.vec) {
			s := &subspace{}
			s.grow(g.vec, g.cols)
			subs = append(subs, s)
			continue
		}
		// No related home and no free slots yet: retry after all
		// subspaces have grown.
		unplaced = append(unplaced, g)
	}
	// Second chance: growth may have absorbed earlier rejects; also
	// allow unrelated growth now that the structure is settled. What
	// still depends on multiple subspaces is crossing → A.
	for _, g := range unplaced {
		place(g, m+1)
	}
	for len(subs) < K {
		subs = append(subs, &subspace{})
	}

	// Complete every subspace to m_D using unit columns present in D
	// (measurement errors), which stay globally independent trivially.
	assigned := make([]bool, v.n)
	for _, s := range subs {
		for _, j := range s.rawCols {
			assigned[j] = true
		}
	}
	for _, s := range subs {
		for r := 0; r < m && s.ech.dim() < mD; r++ {
			j := v.unitCol[r]
			if j < 0 || assigned[j] || !global.add(v.vecs[j]) {
				continue
			}
			s.grow(v.vecs[j], []int{j})
			assigned[j] = true
		}
		if s.ech.dim() < mD {
			return nil, fmt.Errorf("decouple: subspace completion stuck at dim %d/%d", s.ech.dim(), mD)
		}
	}

	// The basis columns become the identities (plan.build inverts the
	// stacked basis); columns in no subspace, zero columns included, go
	// to A.
	identity := make([][]int, K)
	interior := make([][]int, K)
	for i, s := range subs {
		sort.Ints(s.interior)
		identity[i], interior[i] = s.rawCols, s.interior
		for _, j := range s.interior {
			assigned[j] = true
		}
	}
	var crossing []int
	for j := 0; j < v.n; j++ {
		if !assigned[j] {
			crossing = append(crossing, j)
		}
	}
	return newPlan(v, identity, interior, crossing)
}

// wordsFor mirrors gf2's packing (kept local to avoid exporting it).
func wordsFor(n int) int { return (n + 63) / 64 }
