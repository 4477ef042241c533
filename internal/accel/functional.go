package accel

import (
	"vegapunk/internal/decouple"
	"vegapunk/internal/gf2"
)

// Functional is a bit-accurate functional model of the Vegapunk
// accelerator datapath (paper Figure 7): the same five pipeline stages
// the cycle model charges — transformation unit, hierarchical decoding
// units with syndrome-incremental-update, greedy decoding cores with
// LLR adder trees and comparator trees, params update, permutation
// unit — implemented unit by unit on the same bit-level data the RTL
// would see. Its decodes are verified against the software decoder
// (internal/hier) in tests, closing the algorithm/architecture
// equivalence loop of the co-design.
type Functional struct {
	dec *decouple.Decoupling
	// t holds the row supports of T (transformation unit ROM), a holds
	// the column supports of A (HDU candidate ROMs), and blocks the
	// per-group diagonal block columns (GDC ROMs) — all in the flat
	// compressed layout of the hardware's sparse storage (§5.2).
	t      *gf2.CSR
	a      *gf2.CSC
	blocks []*gf2.CSC
	// weights in D' column order, pre-split per unit regfile.
	wIdent, wB [][]float64
	wA         []float64
	// M and inner bound the outer loop and GreedyGuess rounds.
	M, Inner int
}

// NewFunctional builds the functional model from the offline artifact.
func NewFunctional(dec *decouple.Decoupling, originalWeights []float64, m, inner int) *Functional {
	if m < 1 {
		m = 3
	}
	if inner < 1 {
		inner = 3
	}
	w := dec.PermuteWeights(originalWeights)
	f := &Functional{
		dec:    dec,
		t:      dec.TRows,
		a:      dec.A,
		blocks: dec.Blocks,
		M:      m,
		Inner:  inner,
		wA:     w[dec.K*dec.ND:],
	}
	for g := 0; g < dec.K; g++ {
		f.wIdent = append(f.wIdent, w[g*dec.ND:g*dec.ND+dec.MD])
		f.wB = append(f.wB, w[g*dec.ND+dec.MD:(g+1)*dec.ND])
	}
	return f
}

// transformUnit computes s' = T·s via per-row parity (XOR reduction
// trees in hardware).
func (f *Functional) transformUnit(s gf2.Vec) gf2.Vec {
	return f.t.MulVec(s)
}

// incrementalUpdateUnit is the syndrome incremental update unit: a
// regfile holding the best left-part syndrome, updated by sparse column
// XOR (§5.2).
type incrementalUpdateUnit struct {
	regfile gf2.Vec
}

func newIncrementalUpdateUnit(bits int) *incrementalUpdateUnit {
	return &incrementalUpdateUnit{regfile: gf2.NewVec(bits)}
}

func (u *incrementalUpdateUnit) load(v gf2.Vec) { u.regfile.CopyFrom(v) }

func (u *incrementalUpdateUnit) sparseXOR(rows []int32) {
	for _, r := range rows {
		u.regfile.Flip(int(r))
	}
}

// comparatorTree reduces candidate objective values to the leftmost
// minimum via explicit pairwise halving, the hardware tree semantics.
func comparatorTree(vals []float64, valid []bool) (int, float64) {
	type node struct {
		idx int
		val float64
		ok  bool
	}
	layer := make([]node, len(vals))
	for i := range vals {
		layer[i] = node{idx: i, val: vals[i], ok: valid[i]}
	}
	for len(layer) > 1 {
		next := make([]node, 0, (len(layer)+1)/2)
		for i := 0; i < len(layer); i += 2 {
			if i+1 == len(layer) {
				next = append(next, layer[i])
				continue
			}
			a, b := layer[i], layer[i+1]
			switch {
			case !a.ok:
				next = append(next, b)
			case !b.ok:
				next = append(next, a)
			case b.val < a.val:
				next = append(next, b)
			default:
				next = append(next, a) // leftmost wins ties
			}
		}
		layer = next
	}
	if len(layer) == 0 || !layer[0].ok {
		return -1, 0
	}
	return layer[0].idx, layer[0].val
}

// gdcResult is one greedy decoding core's output.
type gdcResult struct {
	f, g gf2.Vec
	obj  float64
}

// greedyDecodingCore runs the GDC of Figure 9: the syndrome incremental
// update units evaluate all candidate g-bit flips in parallel, the LLR
// compute unit scores them with an adder tree, and the comparator tree
// picks the best flip per inner round.
func (f *Functional) greedyDecodingCore(g int, sl gf2.Vec) gdcResult {
	b := f.blocks[g]
	nB := b.Cols()
	u := newIncrementalUpdateUnit(f.dec.MD)
	u.load(sl)
	gv := gf2.NewVec(nB)
	// LLR compute unit: objective of the current (f, g) pair.
	obj := sl.WeightSum(f.wIdent[g])
	for round := 0; round < f.Inner; round++ {
		deltas := make([]float64, nB)
		valid := make([]bool, nB)
		for bit := 0; bit < nB; bit++ {
			if gv.Get(bit) {
				continue
			}
			valid[bit] = true
			d := f.wB[g][bit]
			for _, r := range b.ColSpan(bit) {
				if u.regfile.Get(int(r)) {
					d -= f.wIdent[g][r]
				} else {
					d += f.wIdent[g][r]
				}
			}
			deltas[bit] = d
		}
		best, delta := comparatorTree(deltas, valid)
		if best < 0 || delta >= 0 {
			break
		}
		gv.Set(best, true)
		u.sparseXOR(b.ColSpan(best))
		obj += delta
	}
	return gdcResult{f: u.regfile.Clone(), g: gv, obj: obj}
}

// Decode runs the full five-stage dataflow (§5.1) and returns the error
// in original column order.
func (f *Functional) Decode(syndrome gf2.Vec) gf2.Vec {
	dec := f.dec
	// ① Transformation.
	sPrime := f.transformUnit(syndrome)

	// Baseline pass: every GDC decodes its block of the untouched
	// left-part syndrome.
	slBest := newIncrementalUpdateUnit(dec.M)
	slBest.load(sPrime)
	sols := make([]gdcResult, dec.K)
	for g := 0; g < dec.K; g++ {
		sols[g] = f.greedyDecodingCore(g, slBest.regfile.Slice(g*dec.MD, (g+1)*dec.MD))
	}
	rBest := gf2.NewVec(dec.NA)

	for iter := 0; iter < f.M; iter++ {
		// ② All HDUs evaluate candidate right-error flips in parallel.
		deltas := make([]float64, dec.NA)
		valid := make([]bool, dec.NA)
		for i := 0; i < dec.NA; i++ {
			if rBest.Get(i) {
				continue
			}
			valid[i] = true
			d := f.wA[i]
			sup := f.a.ColSpan(i)
			done := map[int]bool{}
			for _, r32 := range sup {
				g := int(r32) / dec.MD
				if done[g] {
					continue
				}
				done[g] = true
				// Syndrome incremental update: base block slice with the
				// touched rows flipped.
				local := slBest.regfile.Slice(g*dec.MD, (g+1)*dec.MD)
				for _, r2 := range sup {
					if int(r2)/dec.MD == g {
						local.Flip(int(r2) - g*dec.MD)
					}
				}
				ns := f.greedyDecodingCore(g, local)
				d += ns.obj - sols[g].obj
			}
			deltas[i] = d
		}
		// ③ Comparator tree across HDUs.
		best, delta := comparatorTree(deltas, valid)
		// ④ Params update.
		if best < 0 || delta >= 0 {
			break
		}
		rBest.Set(best, true)
		sup := f.a.ColSpan(best)
		slBest.sparseXOR(sup)
		done := map[int]bool{}
		for _, r32 := range sup {
			g := int(r32) / dec.MD
			if done[g] {
				continue
			}
			done[g] = true
			sols[g] = f.greedyDecodingCore(g, slBest.regfile.Slice(g*dec.MD, (g+1)*dec.MD))
		}
	}

	// ⑤ Permutation unit.
	ePrime := gf2.NewVec(dec.N)
	for g := 0; g < dec.K; g++ {
		base := g * dec.ND
		for _, i := range sols[g].f.Ones() {
			ePrime.Set(base+i, true)
		}
		for _, i := range sols[g].g.Ones() {
			ePrime.Set(base+dec.MD+i, true)
		}
	}
	aBase := dec.K * dec.ND
	for _, i := range rBest.Ones() {
		ePrime.Set(aBase+i, true)
	}
	return dec.RecoverError(ePrime)
}
