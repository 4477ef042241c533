// Package hier implements Vegapunk's online hierarchical decoding
// (paper §4.3, Algorithm 1): split the permuted error into the left part
// l (diagonal blocks) and right part r (sparse matrix A), greedily guess
// r one bit per outer iteration, and decode l per block with GreedyGuess,
// exploiting the incremental-syndrome-update trick of the accelerator's
// HDU (§5.2): flipping one bit of r only disturbs the ≤S blocks touched
// by that column of A, so all other block solutions are reused.
//
// Everything a block solve touches is machine words. A block's slice of
// s' ⊕ A·r is ⌈MD/64⌉ words cut out of the transformed syndrome once per
// decode; a candidate column's rows inside a block are a mask of the same
// width built in New, so the candidate's local syndrome is slice ^ mask;
// GreedyGuess (one kernel, every block shape) keeps f in those words and
// g in ⌈(ND−MD)/64⌉. Scoring a candidate needs only each touched block's
// objective, which is a function of (block, local syndrome) and nothing
// else, so it is looked up in a direct-mapped table — the CPU form of the
// accelerator's GDC (§5.3) — and solved only on a miss; the winner's
// blocks are solved for real when it is committed. The table grows inside
// one allocation: it starts at a few slots per block and quadruples as
// misses accumulate, up to tableBudget, so a fresh decoder's first answer
// touches kilobytes of it rather than all of it.
//
// The all-zero syndrome — most of the traffic at the paper's error rates
// — is answered in front of all that, from the trace the first full pass
// over it left (see Decode).
//
// The decoder is allocation-free in steady state: every per-decode
// buffer is owned by the Decoder. The returned error vector is owned by
// the decoder and valid until the next Decode call.
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
	// flat column views of the block B parts.
	blocks []*gf2.CSC
	// fW and gW are the words that hold one block's f (MD bits) and g
	// (ND-MD bits): 1 and 1–5 on the twelve paper codes. gW is at least
	// 1 so that a block without B columns still has a (zero) mask word.
	fW, gW int
	// pruned restricts each GreedyGuess round to bits whose block column
	// intersects the residual f: with nonnegative weights every other
	// bit has delta = w_g + Σ w_f ≥ 0 and can never win, so skipping it
	// cannot change the (strict-less) argmin. The gW words at
	// rowMasks[(g·MD+r)·gW] are block g's columns incident to row r.
	pruned   bool
	rowMasks []uint64
	cm       []uint64 // one round's candidate-bit mask, gW words

	// touched lists, for column i of A, the blocks it touches as
	// touched[touchOff[i]:touchOff[i+1]], in order of first occurrence
	// down the column, and touchMask holds fW words per entry: the
	// column's rows inside that block, block-local. Built once in New,
	// so a candidate's local syndrome is slice ^ mask.
	touchOff  []int32
	touched   []int32
	touchMask []uint64

	// table memoizes block objectives: the 1<<tableBits entries from
	// g<<tableBits are block g's, direct-mapped by local syndrome. The
	// objective is a function of (block, local syndrome) alone — weights
	// and InnerIters are fixed at New — so an entry never goes stale.
	// nil unless the local syndrome is one word (fW = 1), the key.
	// Only the prefix table[:K<<tableBits] is in use: grow widens it 4×,
	// up to maxBits, once sinceGrow misses reach half of it.
	table              []objEntry
	tableBits, maxBits uint
	sinceGrow          int
	// zeroObj is each block's objective on the all-zero local syndrome,
	// which slot 0 of every block holds (see grow).
	zeroObj []float64
	// probes and misses count table lookups; the tests that report the
	// table's first-pass hit share read them, nothing else does.
	probes, misses int

	// Per-decode state, reused across Decode calls (the "owned until
	// next Decode" contract).
	sPrime  gf2.Vec    // transformed syndrome, length M
	rBest   []uint64   // right-error estimate, NA bits
	slices  []uint64   // s' ⊕ A·rBest cut per block, K × fW words
	cand    []uint64   // one candidate's local syndrome, fW words
	sols    []blockSol // committed block solutions, K entries
	scratch blockSol   // a scored candidate's block solution
	out     gf2.Vec    // recovered error in original order, length N

	// zeroTrace is the trace the full pass left on the all-zero syndrome
	// the first time this decoder saw it, and zeroSeen says it has one:
	// Decode answers every later zero syndrome from it.
	zeroTrace Trace
	zeroSeen  bool

	// probe records base-solve and per-level spans.
	probe *obs.Probe
}

// blockSol is one block's GreedyGuess solution, f and g as words.
type blockSol struct {
	f, g  []uint64
	obj   float64
	inner int
}

// objEntry is one table slot: a block-local syndrome and the objective
// GreedyGuess reaches from it.
type objEntry struct {
	key uint64
	obj float64
}

// tableBudget caps the objective table per decoder, in entries
// (256 KiB), split evenly over the K blocks. New allocates the cap at
// once; the table grows inside that one allocation from tableStartBits
// slots per block, so the decoder touches only the prefix in use.
const tableBudget = 1 << 14

// tableStartBits sizes a fresh decoder's table: 1<<tableStartBits slots
// per block (or the cap, if smaller).
const tableStartBits = 6

// fibHash spreads a local syndrome over the high bits (2^64/φ); the
// table index is the top tableBits of key·fibHash, so key 0 is slot 0.
const fibHash = 0x9E3779B97F4A7C15

// New builds the online decoder from an offline decoupling artifact and
// the per-column objective weights of the *original* matrix (LLRs).
func New(dec *decouple.Decoupling, originalWeights []float64, cfg Config) *Decoder {
	cfg = cfg.withDefaults()
	d := &Decoder{
		cfg:    cfg,
		dec:    dec,
		w:      dec.PermuteWeights(originalWeights),
		blocks: dec.Blocks,
		fW:     (dec.MD + 63) / 64,
		gW:     max(1, (dec.ND-dec.MD+63)/64),
		pruned: true,
		sPrime: gf2.NewVec(dec.M),
		rBest:  make([]uint64, (dec.NA+63)/64),
		out:    gf2.NewVec(dec.N),
		probe:  obs.NewProbe(),
	}
	d.cm = make([]uint64, d.gW)
	d.slices = make([]uint64, dec.K*d.fW)
	d.cand = make([]uint64, d.fW)
	d.sols = newBlockSols(d, dec.K)
	d.scratch = newBlockSols(d, 1)[0]
	d.buildTouched()
	for _, x := range d.w {
		if x < 0 {
			d.pruned = false
			break
		}
	}
	if d.pruned {
		d.rowMasks = make([]uint64, dec.M*d.gW)
		for g, b := range d.blocks {
			for bit := 0; bit < b.Cols(); bit++ {
				for _, r := range b.ColSpan(bit) {
					d.rowMasks[(g*dec.MD+int(r))*d.gW+bit>>6] |= 1 << (uint(bit) & 63)
				}
			}
		}
	}
	if d.fW == 1 && dec.K <= tableBudget {
		d.maxBits = uint(min(bits.Len(uint(tableBudget/dec.K))-1, dec.MD))
		d.tableBits = min(tableStartBits, d.maxBits)
		d.table = make([]objEntry, dec.K<<d.maxBits)
		d.zeroObj = make([]float64, dec.K)
		for g := range d.blocks {
			d.greedyGuess(g, d.cand, &d.scratch)
			d.zeroObj[g] = d.scratch.obj
		}
		d.seedZero()
	}
	return d
}

// seedZero fills slot 0 of every block in the table's prefix unless it
// holds another key. Unused slots hold key 0, which only slot 0 can be
// asked for, so it must hold the zero syndrome's real objective (not 0
// under signed weights).
func (d *Decoder) seedZero() {
	for g, obj := range d.zeroObj {
		if e := &d.table[g<<d.tableBits]; e.key == 0 {
			e.obj = obj
		}
	}
}

// grow widens the table's prefix 4× (capped at maxBits) and keeps its
// entries. Slot p of the old prefix is block p>>old's slot p&(1<<old−1),
// the top old bits of its key's hash, so in the wider prefix the key
// lands in one of the 1<<up slots from p<<up. Those lie at or above p:
// moving from the top down never overwrites an entry still to be moved.
func (d *Decoder) grow() {
	old := d.tableBits
	d.tableBits = min(old+2, d.maxBits)
	d.sinceGrow = 0
	up := d.tableBits - old
	for p := d.dec.K<<old - 1; p >= 0; p-- {
		e := d.table[p]
		clear(d.table[p<<up : (p+1)<<up])
		d.table[p<<up|int(e.key*fibHash>>(64-d.tableBits))&(1<<up-1)] = e
	}
	d.seedZero()
}

// buildTouched groups every column of A by block. ColSpan is sorted,
// so a block's rows are one run of the span and the runs come in the
// order the column first reaches each block, which is the order the
// candidate's objective delta is summed in.
func (d *Decoder) buildTouched() {
	md := d.dec.MD
	a := d.dec.A
	d.touchOff = make([]int32, d.dec.NA+1)
	for i := 0; i < d.dec.NA; i++ {
		last := -1
		for _, r := range a.ColSpan(i) {
			g, local := int(r)/md, int(r)%md
			if g != last {
				d.touched = append(d.touched, int32(g))
				d.touchMask = append(d.touchMask, make([]uint64, d.fW)...)
				last = g
			}
			d.touchMask[(len(d.touched)-1)*d.fW+local>>6] |= 1 << (uint(local) & 63)
		}
		d.touchOff[i+1] = int32(len(d.touched))
	}
}

func newBlockSols(d *Decoder, n int) []blockSol {
	sols := make([]blockSol, n)
	for g := range sols {
		sols[g].f = make([]uint64, d.fW)
		sols[g].g = make([]uint64, d.gW)
	}
	return sols
}

// Probe exposes the decoder's span-recording handle (obs.Probed).
func (d *Decoder) Probe() *obs.Probe { return d.probe }

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
// Zero exit: with non-negative weights (d.pruned) no flip lowers an
// objective that is already zero, so the pass answers the all-zero
// syndrome with the zero vector after K block solves and one round over
// every candidate, whatever the outer-round cap. The first such pass
// runs in full and, having returned the zero vector, leaves its trace;
// later ones return that, with the two spans the pass records. New does
// not run it: a pass over the cold objective table is set-up time every
// instance would pay.
func (d *Decoder) Decode(syndrome gf2.Vec) (gf2.Vec, Trace) {
	zero := d.pruned && syndrome.IsZero()
	if zero && d.zeroSeen {
		t := d.probe.Tick()
		t = d.probe.SpanSince(obs.StageHierBase, d.dec.K, t)
		d.probe.SpanSince(obs.StageHierLevel, 1, t)
		d.out.Zero()
		return d.out, d.zeroTrace
	}
	tr := Trace{}
	d.dec.TransformSyndromeInto(d.sPrime, syndrome) // line 1
	d.baseSolve(&tr)
	dMin := d.outerLoop(&tr)
	d.assembleInto(d.out, dMin, &tr)
	if zero && d.out.IsZero() {
		d.zeroTrace, d.zeroSeen = tr, true
	}
	return d.out, tr
}

// blockSlice is block g's fW words of d.slices.
func (d *Decoder) blockSlice(g int) []uint64 {
	return d.slices[g*d.fW : (g+1)*d.fW]
}

// sliceInto copies block g's MD bits of the transformed syndrome sp into
// dst (fW words, bit 0 = the block's first row).
func (d *Decoder) sliceInto(dst []uint64, sp gf2.Vec, g int) {
	md := d.dec.MD
	last := (sp.Len() - 1) >> 6
	for k := range dst {
		lo := g*md + k<<6
		wi, sh := lo>>6, uint(lo)&63
		w := sp.Word(wi) >> sh
		if sh != 0 && wi < last {
			w |= sp.Word(wi+1) << (64 - sh)
		}
		if n := md - k<<6; n < 64 {
			w &= 1<<uint(n) - 1
		}
		dst[k] = w
	}
}

// reset starts a decode of the transformed syndrome sp: rBest ← 0 and
// the block slices ← s' (Algorithm 1 line 2).
func (d *Decoder) reset(sp gf2.Vec) {
	clear(d.rBest)
	for g := range d.sols {
		d.sliceInto(d.blockSlice(g), sp, g)
	}
}

// baseSolve computes the baseline solution for the transformed syndrome
// in d.sPrime: every block decoded against its slice of s' (the level-0
// block solves).
func (d *Decoder) baseSolve(tr *Trace) {
	d.reset(d.sPrime)
	t := d.probe.Tick()
	for g := range d.sols {
		d.greedyGuess(g, d.blockSlice(g), &d.sols[g])
		tr.solved(&d.sols[g])
	}
	d.probe.SpanSince(obs.StageHierBase, d.dec.K, t)
}

// solved accounts one block solve whose solution the decode keeps.
func (tr *Trace) solved(sol *blockSol) {
	tr.BlockDecodes++
	if sol.inner > tr.MaxInnerIters {
		tr.MaxInnerIters = sol.inner
	}
}

// outerLoop runs the right-error guessing rounds (Algorithm 1 lines
// 3-14) against the state prepared by reset and the level-0 solves —
// rBest = 0, the block slices and the committed block solutions — and
// returns the final objective value.
func (d *Decoder) outerLoop(tr *Trace) float64 {
	dec := d.dec
	dMin := 0.0 // rBest = 0: the blocks' objectives are the whole sum
	for g := range d.sols {
		dMin += d.sols[g].obj
	}
	t := d.probe.Tick()

	for k := 1; k <= d.cfg.MaxIters; k++ { // line 3
		tr.OuterIters = k
		bestI := -1
		bestDelta := 0.0

		for i := 0; i < dec.NA; i++ { // line 4
			tr.Candidates++
			if d.rBest[i>>6]>>(uint(i)&63)&1 != 0 {
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
		// Scoring kept only objectives, so commit (line 12) folds the
		// column into the touched slices and solves those blocks.
		d.rBest[bestI>>6] |= 1 << (uint(bestI) & 63)
		for ti := int(d.touchOff[bestI]); ti < int(d.touchOff[bestI+1]); ti++ {
			g := int(d.touched[ti])
			sl := d.blockSlice(g)
			for j := range sl {
				sl[j] ^= d.touchMask[ti*d.fW+j]
			}
			d.greedyGuess(g, sl, &d.sols[g])
			tr.solved(&d.sols[g])
		}
		dMin += bestDelta
		t = d.probe.SpanSince(obs.StageHierLevel, k, t)
	}
	return dMin
}

// assembleInto writes e = P·e' into dst (length N, original column
// order) straight from the committed block solutions and rBest, and
// finalizes the trace (Algorithm 1 line 15).
func (d *Decoder) assembleInto(dst gf2.Vec, dMin float64, tr *Trace) {
	dec := d.dec
	dst.Zero()
	for g := range d.sols {
		setOnes(dst, dec.ColOrder[g*dec.ND:], d.sols[g].f)
		setOnes(dst, dec.ColOrder[g*dec.ND+dec.MD:], d.sols[g].g)
	}
	setOnes(dst, dec.ColOrder[dec.K*dec.ND:], d.rBest)
	tr.Weight = dMin
}

// setOnes sets dst[order[i]] for every set bit i of words.
func setOnes(dst gf2.Vec, order []int, words []uint64) {
	for k, w := range words {
		for ; w != 0; w &= w - 1 {
			dst.Set(order[k<<6+bits.TrailingZeros64(w)], true)
		}
	}
}

// flipDelta is the one walk over the blocks column i of A touches (the
// HDU's incremental update, §5.2): each contributes the objective of its
// slice with the column's rows flipped in, and every other block keeps
// its committed solution. It returns the change in the objective if bit
// i of rBest were flipped on.
func (d *Decoder) flipDelta(i int) float64 {
	delta := d.wA()[i]
	for ti := int(d.touchOff[i]); ti < int(d.touchOff[i+1]); ti++ {
		g := int(d.touched[ti])
		for k, w := range d.blockSlice(g) {
			d.cand[k] = w ^ d.touchMask[ti*d.fW+k]
		}
		delta += d.blockObj(g, d.cand) - d.sols[g].obj
	}
	return delta
}

// blockObj returns the objective GreedyGuess reaches on block g from
// local syndrome sl: looked up, and solved (into d.scratch) and stored
// on a miss. Direct-mapped, so a colliding syndrome evicts; a miss that
// brings the misses since the last growth to half the prefix grows the
// table first.
func (d *Decoder) blockObj(g int, sl []uint64) float64 {
	if d.table == nil {
		d.greedyGuess(g, sl, &d.scratch)
		return d.scratch.obj
	}
	key := sl[0]
	e := d.slot(g, key)
	d.probes++
	if e.key != key {
		d.misses++
		d.greedyGuess(g, sl, &d.scratch)
		if d.sinceGrow++; d.tableBits < d.maxBits && 2*d.sinceGrow >= d.dec.K<<d.tableBits {
			d.grow()
			e = d.slot(g, key)
		}
		*e = objEntry{key, d.scratch.obj}
	}
	return e.obj
}

// slot is block g's table entry for local syndrome key.
func (d *Decoder) slot(g int, key uint64) *objEntry {
	return &d.table[uint64(g)<<d.tableBits|key*fibHash>>(64-d.tableBits)]
}

// greedyGuess solves D_i·l = s_l for one block (paper Fig. 6): with
// D_i = (I | B), fix g and read off f = B·g ⊕ s_l; start from g = 0 and
// greedily flip the g bit that most reduces the weighted objective,
// stopping when no flip helps or InnerIters is reached. f and g stay in
// words (out's, preallocated to fW and gW), bits are visited in
// ascending order and the sums accumulate in the order of the bit-level
// reference, so the solution is bit-for-bit refGreedyGuess's.
func (d *Decoder) greedyGuess(g int, sl []uint64, out *blockSol) {
	b := d.blocks[g]
	wf := d.wIdent(g)
	wg := d.wB(g)
	f, gv, cm := out.f, out.g, d.cm
	copy(f, sl)
	clear(gv)
	obj := 0.0
	for k, w := range f {
		for ; w != 0; w &= w - 1 {
			obj += wf[k<<6+bits.TrailingZeros64(w)]
		}
	}
	inner := 0
	for round := 1; round <= d.cfg.InnerIters; round++ {
		// Bits worth scoring this round: every unset one, or (with
		// nonnegative weights) only those incident to the residual.
		if d.pruned {
			clear(cm)
			for k, w := range f {
				for ; w != 0; w &= w - 1 {
					rm := d.rowMasks[(g*d.dec.MD+k<<6+bits.TrailingZeros64(w))*d.gW:]
					for j := range cm {
						cm[j] |= rm[j]
					}
				}
			}
			for j := range cm {
				cm[j] &^= gv[j]
			}
		} else {
			for j := range cm {
				cm[j] = ^gv[j]
			}
			cm[len(cm)-1] &= 1<<uint(b.Cols()-64*(len(cm)-1)) - 1
		}
		bestBit := -1
		bestDelta := 0.0
		for j, m := range cm {
			for ; m != 0; m &= m - 1 {
				bit := j<<6 + bits.TrailingZeros64(m)
				delta := wg[bit]
				for _, r := range b.ColSpan(bit) {
					if f[r>>6]>>(uint(r)&63)&1 != 0 {
						delta -= wf[r]
					} else {
						delta += wf[r]
					}
				}
				if bestBit < 0 || delta < bestDelta {
					bestBit, bestDelta = bit, delta
				}
			}
		}
		if bestBit < 0 || bestDelta >= 0 {
			break
		}
		inner = round
		gv[bestBit>>6] |= 1 << (uint(bestBit) & 63)
		for _, r := range b.ColSpan(bestBit) {
			f[r>>6] ^= 1 << (uint(r) & 63)
		}
		obj += bestDelta
	}
	out.obj = obj
	out.inner = inner
}
