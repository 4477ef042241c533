// Package hier implements Vegapunk's online hierarchical decoding
// (paper §4.3, Algorithm 1): split the permuted error into the left part
// l (diagonal blocks) and right part r (sparse matrix A), greedily guess
// r one bit per outer iteration, and decode l per block with GreedyGuess,
// exploiting the incremental-syndrome-update trick of the accelerator's
// HDU (§5.2): flipping one bit of r only disturbs the ≤S blocks touched
// by that column of A, so all other block solutions are reused.
//
// The decoder is allocation-free in steady state: every per-decode
// buffer is owned by the Decoder, and the sparse structure is iterated
// through flat CSC spans and a flat column→touched-blocks table. The
// returned error vector is owned by the decoder and valid until the
// next Decode call.
package hier

import (
	"math/bits"

	"vegapunk/internal/decouple"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// Config tunes the online decoder.
type Config struct {
	// MaxIters is the paper's M: outer right-error guessing rounds
	// (default 3, the paper's production setting).
	MaxIters int
	// InnerIters caps GreedyGuess rounds per block (default 3).
	InnerIters int
}

func (c Config) withDefaults() Config {
	if c.MaxIters <= 0 {
		c.MaxIters = 3
	}
	if c.InnerIters <= 0 {
		c.InnerIters = 3
	}
	return c
}

// Trace records what a decode did, feeding the accelerator cycle model.
type Trace struct {
	// OuterIters is the number of executed outer rounds (≤ MaxIters).
	OuterIters int
	// Candidates is the number of right-error candidates evaluated.
	Candidates int
	// BlockDecodes counts GreedyGuess invocations.
	BlockDecodes int
	// MaxInnerIters is the largest GreedyGuess round count observed.
	MaxInnerIters int
	// Weight is the final objective value Σ w_j e_j.
	Weight float64
}

// Decoder executes Algorithm 1 against one decoupling artifact. It is
// not safe for concurrent use; create one per goroutine.
type Decoder struct {
	cfg Config
	dec *decouple.Decoupling
	// weights in D' column order, split per region.
	w []float64
	// flat column views of A and the block B parts.
	a      *gf2.CSC
	blocks []*gf2.CSC
	// smallBlock enables the single-word GreedyGuess fast path
	// (MD ≤ 64 and ND-MD ≤ 64, true for every code in the paper).
	smallBlock bool
	// pruned additionally restricts each GreedyGuess round to bits whose
	// block column intersects the residual f: with nonnegative weights
	// every other bit has delta = w_g + Σ w_f ≥ 0 and can never win, so
	// skipping it cannot change the (strict-less) argmin. rowMasks[g][r]
	// is the bit set of block g's columns incident to row r.
	pruned   bool
	rowMasks [][]uint64
	allBits  uint64 // mask of the nB valid bits

	// touched lists, for column i of A, the blocks it touches as
	// touched[touchOff[i]:touchOff[i+1]] (touchedBy), in order of first
	// occurrence down the column. Built once in New, so no decode
	// divides a row index by MD or rescans a column for duplicates.
	touchOff []int32
	touched  []touchedBlock

	// Per-decode state, reused across Decode calls (the "owned until
	// next Decode" contract).
	sPrime  gf2.Vec    // transformed syndrome, length M
	rBest   gf2.Vec    // right-error estimate, length NA
	slBase  gf2.Vec    // s' ⊕ A·rBest, length M
	sl      gf2.Vec    // one block's syndrome slice, length MD
	sols    []blockSol // committed block solutions, K entries
	staged  []blockSol // the last flipDelta's block solutions, K entries
	ePrime  gf2.Vec    // assembled error in D' order, length N
	out     gf2.Vec    // recovered error in original order, length N
	onesBuf []int      // AppendOnes scratch

	// hb is the batched path's owned scratch (batch.go), built lazily on
	// the first DecodeBatch so serial-only users pay nothing.
	hb *hbatch

	// probe records base-solve and per-level spans.
	probe *obs.Probe
}

// touchedBlock is one block a column of A touches: the block index and
// the part [lo, hi) of the column's ColSpan that lies inside it.
type touchedBlock struct {
	g      int32
	lo, hi int32
}

// blockSol is one block's GreedyGuess solution.
type blockSol struct {
	f, g  gf2.Vec
	obj   float64
	inner int
}

// New builds the online decoder from an offline decoupling artifact and
// the per-column objective weights of the *original* matrix (LLRs).
func New(dec *decouple.Decoupling, originalWeights []float64, cfg Config) *Decoder {
	cfg = cfg.withDefaults()
	d := &Decoder{
		cfg:        cfg,
		dec:        dec,
		w:          dec.PermuteWeights(originalWeights),
		a:          dec.ACSC(),
		blocks:     dec.BlocksCSC(),
		smallBlock: dec.MD >= 1 && dec.MD <= 64 && dec.ND-dec.MD >= 1 && dec.ND-dec.MD <= 64,
		sPrime:     gf2.NewVec(dec.M),
		rBest:      gf2.NewVec(dec.NA),
		slBase:     gf2.NewVec(dec.M),
		sl:         gf2.NewVec(dec.MD),
		sols:       newBlockSols(dec),
		staged:     newBlockSols(dec),
		ePrime:     gf2.NewVec(dec.N),
		out:        gf2.NewVec(dec.N),
		onesBuf:    make([]int, 0, dec.ND),
		probe:      obs.NewProbe(),
	}
	d.buildTouched()
	if d.smallBlock {
		nB := dec.ND - dec.MD
		d.allBits = ^uint64(0) >> uint(64-nB)
		d.pruned = true
		for _, x := range d.w {
			if x < 0 {
				d.pruned = false
				break
			}
		}
		if d.pruned {
			d.rowMasks = make([][]uint64, dec.K)
			for g := 0; g < dec.K; g++ {
				rm := make([]uint64, dec.MD)
				b := dec.Blocks[g]
				for bit := 0; bit < b.Cols(); bit++ {
					for _, r := range b.ColSupport(bit) {
						rm[r] |= 1 << uint(bit)
					}
				}
				d.rowMasks[g] = rm
			}
		}
	}
	return d
}

// buildTouched groups every column of A by block. ColSpan is sorted,
// so a block's rows are one run of the span and the runs come in the
// order the column first reaches each block, which is the order the
// candidate's objective delta is summed in.
func (d *Decoder) buildTouched() {
	md := int32(d.dec.MD)
	d.touchOff = make([]int32, d.dec.NA+1)
	for i := 0; i < d.dec.NA; i++ {
		var run *touchedBlock
		for at, r := range d.a.ColSpan(i) {
			if g := r / md; run == nil || run.g != g {
				d.touched = append(d.touched, touchedBlock{g: g, lo: int32(at)})
				run = &d.touched[len(d.touched)-1]
			}
			run.hi = int32(at) + 1
		}
		d.touchOff[i+1] = int32(len(d.touched))
	}
}

// touchedBy returns the blocks column i of A touches.
func (d *Decoder) touchedBy(i int) []touchedBlock {
	return d.touched[d.touchOff[i]:d.touchOff[i+1]]
}

func newBlockSols(dec *decouple.Decoupling) []blockSol {
	sols := make([]blockSol, dec.K)
	for g := range sols {
		sols[g].f = gf2.NewVec(dec.MD)
		sols[g].g = gf2.NewVec(dec.ND - dec.MD)
	}
	return sols
}

// Probe exposes the decoder's span-recording handle (obs.Probed).
func (d *Decoder) Probe() *obs.Probe { return d.probe }

// MaxIters reports the current outer-round cap (the paper's M).
func (d *Decoder) MaxIters() int { return d.cfg.MaxIters }

// SetMaxIters retunes the outer-round cap at runtime (min 1). No
// buffer is sized by it, so it is safe between Decode calls — the
// serving degradation ladder lowers it under overload.
//
//vegapunk:hotpath
func (d *Decoder) SetMaxIters(n int) {
	if n < 1 {
		n = 1
	}
	d.cfg.MaxIters = n
}

// weight regions.
func (d *Decoder) wIdent(g int) []float64 { // identity part of block g
	return d.w[g*d.dec.ND : g*d.dec.ND+d.dec.MD]
}
func (d *Decoder) wB(g int) []float64 { // B part of block g
	return d.w[g*d.dec.ND+d.dec.MD : (g+1)*d.dec.ND]
}
func (d *Decoder) wA() []float64 { // A columns
	return d.w[d.dec.K*d.dec.ND:]
}

// Decode runs Algorithm 1 and returns the estimated error in the
// original column order, plus the execution trace. The result always
// satisfies D·e = s exactly (GreedyGuess solutions are constraint-exact
// by construction). The returned vector is owned by the decoder and
// valid until the next Decode call.
//
//vegapunk:hotpath
func (d *Decoder) Decode(syndrome gf2.Vec) (gf2.Vec, Trace) {
	tr := Trace{}
	d.dec.TransformSyndromeInto(d.sPrime, syndrome) // line 1
	d.baseSolve(&tr)
	dMin := d.outerLoop(&tr)
	d.assembleInto(d.out, dMin, &tr)
	return d.out, tr
}

// baseSolve computes the baseline solution for the transformed syndrome
// in d.sPrime: rBest ← 0, slBase ← s', and every block decoded against
// slBase (Algorithm 1 line 2 plus the level-0 block solves).
//
//vegapunk:hotpath
func (d *Decoder) baseSolve(tr *Trace) {
	dec := d.dec
	d.rBest.Zero()              // line 2
	d.slBase.CopyFrom(d.sPrime) // s' ⊕ A·rBest (rBest = 0)
	t := d.probe.Tick()
	for g := 0; g < dec.K; g++ {
		dec.BlockSyndromeInto(d.sl, d.slBase, g)
		d.greedyGuess(g, d.sl, &d.sols[g])
		tr.BlockDecodes++
		if d.sols[g].inner > tr.MaxInnerIters {
			tr.MaxInnerIters = d.sols[g].inner
		}
	}
	d.probe.SpanSince(obs.StageHierBase, dec.K, t)
}

// outerLoop runs the right-error guessing rounds (Algorithm 1 lines
// 3-14) against the state prepared by baseSolve — rBest, slBase and the
// committed block solutions — and returns the final objective value.
//
//vegapunk:hotpath
func (d *Decoder) outerLoop(tr *Trace) float64 {
	dec := d.dec
	dMin := d.totalWeight()
	t := d.probe.Tick()

	for k := 1; k <= d.cfg.MaxIters; k++ { // line 3
		tr.OuterIters = k
		bestI := -1
		bestDelta := 0.0

		for i := 0; i < dec.NA; i++ { // line 4
			tr.Candidates++
			if d.rBest.Get(i) {
				continue
			}
			// Candidate r = rBest with bit i set (line 5).
			if delta := d.flipDelta(i); bestI < 0 || delta < bestDelta {
				bestI, bestDelta = i, delta
			}
		}

		if bestI < 0 || bestDelta >= 0 { // lines 11, 13-14
			t = d.probe.SpanSince(obs.StageHierLevel, k, t)
			break
		}
		// Scoring keeps no candidate's block solutions, so solve the
		// winner's touched blocks once more, then commit (line 12): a
		// pointer swap per block.
		d.flipDelta(bestI)
		d.rBest.Set(bestI, true)
		d.a.XorColInto(d.slBase, bestI)
		for _, tb := range d.touchedBy(bestI) {
			g := tb.g
			d.sols[g], d.staged[g] = d.staged[g], d.sols[g]
			if d.sols[g].inner > tr.MaxInnerIters {
				tr.MaxInnerIters = d.sols[g].inner
			}
			tr.BlockDecodes++
		}
		dMin += bestDelta
		t = d.probe.SpanSince(obs.StageHierLevel, k, t)
	}
	return dMin
}

// assembleInto builds e' from the committed block solutions and rBest,
// recovers e = P·e' into dst (length N, original column order), and
// finalizes the trace (Algorithm 1 line 15).
//
//vegapunk:hotpath
func (d *Decoder) assembleInto(dst gf2.Vec, dMin float64, tr *Trace) {
	dec := d.dec
	d.ePrime.Zero()
	for g := 0; g < dec.K; g++ {
		base := g * dec.ND
		d.onesBuf = d.sols[g].f.AppendOnes(d.onesBuf[:0])
		for _, i := range d.onesBuf {
			d.ePrime.Set(base+i, true)
		}
		d.onesBuf = d.sols[g].g.AppendOnes(d.onesBuf[:0])
		for _, i := range d.onesBuf {
			d.ePrime.Set(base+dec.MD+i, true)
		}
	}
	aBase := dec.K * dec.ND
	d.onesBuf = d.rBest.AppendOnes(d.onesBuf[:0])
	for _, i := range d.onesBuf {
		d.ePrime.Set(aBase+i, true)
	}
	tr.Weight = dMin
	d.dec.RecoverErrorInto(dst, d.ePrime)
}

// flipDelta is the one walk over the blocks column i of A touches (the
// HDU's incremental update, §5.2): each is re-solved against its slice
// of slBase with the column's rows flipped in, into d.staged, and every
// other block keeps its committed solution. It returns the change in
// the objective if bit i of rBest were flipped on. Scoring reads the
// return value; commit reads d.staged.
//
//vegapunk:hotpath
func (d *Decoder) flipDelta(i int) float64 {
	delta := d.wA()[i]
	sup := d.a.ColSpan(i)
	for _, tb := range d.touchedBy(i) {
		g := int(tb.g)
		d.dec.BlockSyndromeInto(d.sl, d.slBase, g)
		for _, r := range sup[tb.lo:tb.hi] {
			d.sl.Flip(int(r) - g*d.dec.MD)
		}
		d.greedyGuess(g, d.sl, &d.staged[g])
		delta += d.staged[g].obj - d.sols[g].obj
	}
	return delta
}

// totalWeight computes Σ w over the assembled solution.
func (d *Decoder) totalWeight() float64 {
	total := 0.0
	for g := range d.sols {
		total += d.sols[g].obj
	}
	return total + d.rBest.WeightSum(d.wA())
}

// greedyGuess solves D_i·l = s_l for one block (paper Fig. 6): with
// D_i = (I | B), fix g and read off f = B·g ⊕ s_l; start from g = 0 and
// greedily flip the g bit that most reduces the weighted objective,
// stopping when no flip helps or InnerIters is reached. The solution is
// written into out (whose vectors must be preallocated to MD and ND-MD).
//
//vegapunk:hotpath
func (d *Decoder) greedyGuess(g int, sl gf2.Vec, out *blockSol) {
	b := d.blocks[g]
	wf := d.wIdent(g)
	wg := d.wB(g)
	nB := b.Cols()

	f := out.f
	gv := out.g
	f.CopyFrom(sl)
	gv.Zero()
	obj := f.WeightSum(wf)
	inner := 0
	if d.smallBlock {
		// Both f (MD bits) and g (ND-MD bits) fit in one word: keep them
		// in registers and test bits by shifting, avoiding a memory load
		// per matrix entry. The arithmetic order is identical to the
		// general path, so decodes are bit-for-bit the same.
		fw := f.Word(0)
		var gvw uint64
		for round := 1; round <= d.cfg.InnerIters; round++ {
			// Bits worth scoring this round: all of them, or (with
			// nonnegative weights) only those incident to the residual.
			cm := d.allBits
			if d.pruned {
				cm = 0
				rm := d.rowMasks[g]
				for w := fw; w != 0; w &= w - 1 {
					cm |= rm[bits.TrailingZeros64(w)]
				}
			}
			cm &^= gvw
			bestBit := -1
			bestDelta := 0.0
			for m := cm; m != 0; m &= m - 1 {
				bit := bits.TrailingZeros64(m)
				delta := wg[bit]
				for _, r := range b.ColSpan(bit) {
					if fw>>uint(r)&1 != 0 {
						delta -= wf[r]
					} else {
						delta += wf[r]
					}
				}
				if bestBit < 0 || delta < bestDelta {
					bestBit, bestDelta = bit, delta
				}
			}
			if bestBit < 0 || bestDelta >= 0 {
				break
			}
			inner = round
			gvw |= 1 << uint(bestBit)
			for _, r := range b.ColSpan(bestBit) {
				fw ^= 1 << uint(r)
			}
			obj += bestDelta
		}
		f.SetWord(0, fw)
		gv.SetWord(0, gvw)
		out.obj = obj
		out.inner = inner
		return
	}
	for round := 1; round <= d.cfg.InnerIters; round++ {
		bestBit := -1
		bestDelta := 0.0
		for bit := 0; bit < nB; bit++ {
			if gv.Get(bit) {
				continue
			}
			delta := wg[bit]
			for _, r := range b.ColSpan(bit) {
				if f.Get(int(r)) {
					delta -= wf[r]
				} else {
					delta += wf[r]
				}
			}
			if bestBit < 0 || delta < bestDelta {
				bestBit, bestDelta = bit, delta
			}
		}
		if bestBit < 0 || bestDelta >= 0 {
			break
		}
		inner = round
		gv.Set(bestBit, true)
		b.XorColInto(f, bestBit)
		obj += bestDelta
	}
	out.obj = obj
	out.inner = inner
}
