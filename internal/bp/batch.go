package bp

import (
	"math"
	"math/bits"

	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// Batched decoding. DecodeBatch runs up to 64 independent syndromes
// ("lanes") through one message-passing sweep: the messages are laid
// out structure-of-arrays ([edge][lane], lanes contiguous) so a single
// traversal of the Tanner graph's flat edge spans amortizes every index
// load across the whole batch, and the inner lane loops are tight
// contiguous float64 passes with no per-element indirection. The GF(2)
// stages — hard-decision packing and the syndrome residual check — are
// bit-sliced 64 lanes per machine word, so one parity sweep over the
// check adjacency serves the entire batch.
//
// Lanes are mathematically independent and the per-lane arithmetic
// follows the scalar kernel's operation order exactly, so a batch
// decode is bit-identical to len(syndromes) serial Decode calls
// (pinned by TestDecodeBatchMatchesSerial). A lane freezes the
// iteration it converges: its output is unpacked immediately, and the
// surviving lanes are physically compacted to the front of the SoA
// rows — the inner loops always run over a dense [0, nAct) prefix, so
// convergence skew inside a batch costs neither wasted message updates
// nor strided access.
//
// Under relay (Config.Legs > 0) the sweep is leg 0 only: it applies the
// scalar stall rule to the bit-sliced hard decisions, and every lane it
// leaves unsolved — stalled, or out of iterations — restarts on the
// scalar path, which owns the one relay implementation.

// LaneStats reports one lane of a batch decode: the same iteration
// count and convergence flag the scalar Result carries.
type LaneStats struct {
	// Iters is the number of message-passing iterations the lane ran.
	Iters int
	// Converged reports whether the lane's hard decision reproduced its
	// syndrome within MaxIters.
	Converged bool
}

// batchScratch owns every buffer of the batched kernel. It is sized to
// the widest chunk seen (at most gf2.MaxLanes lanes) and reused across
// DecodeBatch calls, so the steady state allocates nothing.
type batchScratch struct {
	lanes int // lane stride of the SoA buffers (≤ gf2.MaxLanes)

	// Structure-of-arrays message state, indexed [edge*lanes + lane].
	varToCheck, checkToVar []float64

	// Bit-sliced GF(2) state: one word per syndrome bit / variable, one
	// (physical) lane per word bit.
	synW  []uint64 // packed syndromes, NumChecks words
	hardW []uint64 // packed hard decisions, NumVars words
	// prev1W and prev2W are the packed hard decisions of the two
	// iterations before hardW's, rotated with it (relay's stall rule).
	prev1W, prev2W []uint64

	// Per-lane reduction temporaries for the check/variable updates.
	sum, min1, min2 [gf2.MaxLanes]float64
	min1Edge        [gf2.MaxLanes]int32

	// Lane bookkeeping: laneOf maps a physical SoA lane to its original
	// batch index; srcLane stages the surviving physical lanes during
	// compaction. pendingGather marks that a compaction happened after
	// the last variable update: the next check update's first read pass
	// gathers each varToCheck row through srcLane (and re-densifies it in
	// place) instead of paying a dedicated compaction sweep — varToCheck
	// is the only float state live across the iteration boundary, and it
	// is fully rewritten by every variable update anyway.
	laneOf, srcLane [gf2.MaxLanes]int
	pendingGather   bool

	// toScalar collects the original indices of the lanes the sweep gave
	// up on, for one escalateLanes call at the end of the chunk.
	toScalar [gf2.MaxLanes]int

	stats []LaneStats // per-lane results, len grown to the batch size

	// posPriors reports that every prior is non-negative (the normal
	// p < 1/2 case), which makes the iteration-one check update
	// lane-independent: all lanes carry the same positive priors, so the
	// min pass runs once and only the syndrome sign differs per lane.
	posPriors bool
}

// ensureBatch readies the batch scratch for chunks of L lanes and a
// result slice of n lanes, growing (never shrinking) on first use or
// when a wider batch arrives. Growth allocates; the steady state — same
// or narrower batches — reuses everything.
func (d *Decoder) ensureBatch(L, n int) {
	if d.batch == nil {
		d.batch = &batchScratch{} //vegapunk:allow(alloc) first DecodeBatch constructs the owned scratch; reused afterwards
		d.batch.posPriors = true
		for _, p := range d.prior {
			if p < 0 {
				d.batch.posPriors = false
				break
			}
		}
	}
	bs := d.batch
	if bs.lanes < L {
		ne := d.g.NumEdges()
		bs.lanes = L
		bs.varToCheck = make([]float64, ne*L)   //vegapunk:allow(alloc) scratch growth to the widest batch seen, then reused
		bs.checkToVar = make([]float64, ne*L)   //vegapunk:allow(alloc) scratch growth to the widest batch seen, then reused
		bs.synW = make([]uint64, d.g.NumChecks) //vegapunk:allow(alloc) scratch growth to the widest batch seen, then reused
		nv := d.g.NumVars
		hardW := make([]uint64, 3*nv) //vegapunk:allow(alloc) scratch growth to the widest batch seen, then reused
		bs.hardW, bs.prev1W, bs.prev2W = hardW[:nv], hardW[nv:2*nv], hardW[2*nv:]
	}
	if cap(bs.stats) < n {
		bs.stats = make([]LaneStats, n) //vegapunk:allow(alloc) stats growth to the largest batch seen, then reused
	}
	bs.stats = bs.stats[:n]
}

// DecodeBatch decodes syndromes[i] into out[i] for every i, exactly as
// len(syndromes) serial Decode calls would (bit-identical results and
// stats). out vectors are caller-owned destinations of length NumVars;
// the returned stats slice is owned by the decoder and valid until the
// next DecodeBatch call on the same instance. Batches wider than
// gf2.MaxLanes are processed in 64-lane chunks through the same owned
// scratch.
//
//vegapunk:hotpath
func (d *Decoder) DecodeBatch(syndromes []gf2.Vec, out []gf2.Vec) []LaneStats {
	n := len(syndromes)
	if len(out) < n {
		panic("bp: DecodeBatch with fewer outputs than syndromes")
	}
	if n == 0 {
		return nil
	}
	L := n
	if L > gf2.MaxLanes {
		L = gf2.MaxLanes
	}
	d.ensureBatch(L, n)
	stats := d.batch.stats
	for off := 0; off < n; off += gf2.MaxLanes {
		end := off + gf2.MaxLanes
		if end > n {
			end = n
		}
		d.decodeChunk(syndromes[off:end], out[off:end], stats[off:end])
	}
	return stats
}

// escalateBelow is the active-lane count at or below which the SoA
// sweep stops paying: with only a few live lanes the per-edge overhead
// (index loads, row slicing) outweighs the amortization, so the
// remaining lanes re-run through the scalar kernel instead. Because the
// batch per-lane arithmetic matches the scalar operation order exactly,
// restarting a lane from iteration zero reproduces its trajectory
// bit-for-bit — escalation changes cost, never results.
const escalateBelow = 8

// escalateLanes finishes the given original-index lanes on the scalar
// path, copying each result out before the next lane overwrites the
// decoder-owned buffer.
//
//vegapunk:hotpath
func (d *Decoder) escalateLanes(lanes []int, syns, outs []gf2.Vec, stats []LaneStats) {
	for _, i := range lanes {
		r := d.Decode(syns[i])
		outs[i].CopyFrom(r.Error)
		stats[i] = LaneStats{Iters: r.Iters, Converged: r.Converged}
	}
}

// decodeChunk runs one ≤64-lane chunk through the SoA kernel.
//
//vegapunk:hotpath
func (d *Decoder) decodeChunk(syns, outs []gf2.Vec, stats []LaneStats) {
	g := d.g
	bs := d.batch
	nAct := len(syns)
	for l := range syns {
		bs.laneOf[l] = l
	}
	if nAct <= escalateBelow {
		// Too narrow for the SoA sweep to pay off at all.
		d.escalateLanes(bs.laneOf[:nAct], syns, outs, stats)
		return
	}

	gf2.PackLanesInto(bs.synW, syns)
	bs.pendingGather = false // a previous chunk may have exited with a gather staged
	for l := range syns {
		stats[l] = LaneStats{}
	}

	// Initialize variable-to-check messages with priors — except when
	// the iteration-one fast path applies: batchCheckFirst reads the
	// priors directly and the first batchVarUpdate rewrites every row,
	// so the broadcast would never be read.
	if !bs.posPriors {
		S := bs.lanes
		for v := 0; v < g.NumVars; v++ {
			p := d.prior[v]
			for _, e := range g.VarEdges(v) {
				row := bs.varToCheck[int(e)*S : int(e)*S+nAct]
				for l := range row {
					row[l] = p
				}
			}
		}
	}

	relay := d.cfg.Legs > 0
	nScalar := 0    // lanes handed to the scalar path so far
	var left uint64 // physical lanes the last iteration removed, not yet compacted away
	t := d.probe.Tick()
	for it := 1; ; it++ {
		for p := 0; p < nAct; p++ {
			stats[bs.laneOf[p]].Iters = it
		}
		if it == 1 && bs.posPriors {
			d.batchCheckFirst(nAct)
		} else {
			d.batchCheckUpdate(nAct)
		}
		if relay {
			bs.hardW, bs.prev1W, bs.prev2W = bs.prev2W, bs.hardW, bs.prev1W
		}
		d.batchVarUpdate(nAct)
		left = d.batchResidual(nAct)
		t = d.probe.SpanSince(obs.StageBPIter, it, t)
		// Freeze converged lanes: unpack their outputs now.
		for w := left; w != 0; w &= w - 1 {
			p := bits.TrailingZeros64(w)
			i := bs.laneOf[p]
			gf2.LaneUnpackInto(outs[i], bs.hardW, p)
			stats[i].Converged = true
		}
		if relay && it > stallLag {
			// Stalled lanes leave as well, for the scalar path's legs.
			stalled := d.batchStalled(nAct) &^ left
			for w := stalled; w != 0; w &= w - 1 {
				bs.toScalar[nScalar] = bs.laneOf[bits.TrailingZeros64(w)]
				nScalar++
			}
			left |= stalled
		}
		if it == d.cfg.MaxIters {
			break
		}
		if left == 0 {
			continue
		}
		// Compact the survivors to the front of the SoA rows.
		nAct = d.compactLanes(left, nAct)
		left = 0
		if nAct <= escalateBelow {
			// Straggler escalation: the surviving lanes finish on the
			// scalar path (see escalateBelow for why this is both
			// faster and bit-identical).
			break
		}
	}
	for p := 0; p < nAct; p++ {
		if left>>uint(p)&1 != 0 {
			continue // left in the final iteration, already placed
		}
		if i := bs.laneOf[p]; relay || nAct <= escalateBelow {
			// Stragglers, and under relay any lane out of iterations: it
			// still has its legs to run.
			bs.toScalar[nScalar] = i
			nScalar++
		} else {
			// A lane that never converged returns its final hard
			// decision, like the scalar kernel.
			gf2.LaneUnpackInto(outs[i], bs.hardW, p)
		}
	}
	d.escalateLanes(bs.toScalar[:nScalar], syns, outs, stats)
}

// compactLanes removes the physical lanes in gone from the SoA state:
// survivors move to the front of every variable-to-check row (the only
// float state live across iterations — check-to-variable messages and
// posteriors are fully rewritten each iteration), of the bit-sliced
// syndrome words and, under relay, of the hard-decision words the stall
// rule will read again. Returns the new active-lane count; at or below
// escalateBelow only laneOf is brought up to date.
//
//vegapunk:hotpath
func (d *Decoder) compactLanes(gone uint64, nAct int) int {
	bs := d.batch
	np := 0
	for p := 0; p < nAct; p++ {
		if gone>>uint(p)&1 == 0 {
			bs.laneOf[np] = bs.laneOf[p]
			bs.srcLane[np] = p
			np++
		}
	}
	if np <= escalateBelow || np == nAct {
		// Nothing moved — or the caller sends the survivors to the scalar
		// path, and no SoA state is read again.
		return np
	}
	src := bs.srcLane[:np]
	compactWords(bs.synW, src)
	if d.cfg.Legs > 0 {
		compactWords(bs.hardW, src)
		compactWords(bs.prev1W, src)
	}
	// The float state is gathered lazily: the next check update reads
	// each varToCheck row through srcLane and re-densifies it in place,
	// so no dedicated sweep over the edge rows happens here.
	bs.pendingGather = true
	return np
}

// compactWords moves bit src[q] of every word to bit q.
//
//vegapunk:hotpath
func compactWords(ws []uint64, src []int) {
	for c, w := range ws {
		var nw uint64
		for q, s := range src {
			nw |= (w >> uint(s) & 1) << uint(q)
		}
		ws[c] = nw
	}
}

// batchStalled returns the word of active lanes whose hard decision
// equals the one stallLag iterations back: the scalar stall rule on the
// bit-sliced words.
//
//vegapunk:hotpath
func (d *Decoder) batchStalled(nAct int) uint64 {
	bs := d.batch
	var moved uint64
	for v, w := range bs.hardW {
		moved |= w ^ bs.prev2W[v]
	}
	return ^moved & (^uint64(0) >> uint(64-nAct))
}

// batchCheckFirst is the iteration-one check update for non-negative
// priors: every lane's incoming messages are the same positive priors,
// so the two-minimum pass is lane-independent and runs once per check,
// and the per-lane work collapses to selecting the message sign from
// the bit-sliced syndrome word. Bit-identical to batchCheckUpdate (and
// therefore to the scalar kernel): the magnitude product alpha*mag is
// computed once and negated by flipping the IEEE sign bit, exactly what
// (alpha*s)*mag with s = ±1 produces.
//
//vegapunk:hotpath
func (d *Decoder) batchCheckFirst(nAct int) {
	g := d.g
	bs := d.batch
	S := bs.lanes
	alpha := scaleFactor
	inf := math.Inf(1)
	for c := 0; c < g.NumChecks; c++ {
		edges := g.CheckEdges(c)
		min1, min2 := inf, inf
		min1Edge := int32(-1)
		for _, e := range edges {
			a := d.prior[g.VarOf[e]]
			if a < min1 {
				min2 = min1
				min1 = a
				min1Edge = e
			} else if a < min2 {
				min2 = a
			}
		}
		w := bs.synW[c]
		for _, e := range edges {
			mag := min1
			if e == min1Edge {
				mag = min2
			}
			mb := math.Float64bits(alpha * mag)
			out := bs.checkToVar[int(e)*S : int(e)*S+nAct]
			for l := range out {
				out[l] = math.Float64frombits(mb | (w>>uint(l)&1)<<63)
			}
		}
	}
}

// batchCheckUpdate computes check-to-variable messages for the active
// lanes: one pass over each check's edge span tracks the two smallest
// magnitudes per lane, then a second pass writes the normalized
// min-sum messages. Per lane the operation order matches the scalar
// checkUpdate exactly.
//
//vegapunk:hotpath
func (d *Decoder) batchCheckUpdate(nAct int) {
	g := d.g
	bs := d.batch
	S := bs.lanes
	min1 := bs.min1[:nAct]
	min2 := bs.min2[:nAct]
	min1Edge := bs.min1Edge[:nAct]
	inf := math.Inf(1)
	alpha := scaleFactor
	gather := bs.pendingGather
	bs.pendingGather = false
	src := bs.srcLane[:nAct]
	for c := 0; c < g.NumChecks; c++ {
		edges := g.CheckEdges(c)
		for l := range min1 {
			min1[l] = inf
			min2[l] = inf
			min1Edge[l] = -1
		}
		var negW uint64 // running sign parity, one bit per lane
		if gather {
			// Deferred compaction: pull each surviving lane's message out
			// of its pre-compaction slot and re-densify the row in place
			// (srcLane[l] ≥ l, so the forward gather never clobbers a
			// pending source). Each edge row passes here exactly once, so
			// the second pass and every later iteration read dense rows.
			for _, e := range edges {
				row := bs.varToCheck[int(e)*S : int(e)*S+S]
				for l, s := range src {
					m := row[s]
					row[l] = m
					a := math.Abs(m)
					if m < 0 {
						negW ^= 1 << uint(l)
					}
					if a < min1[l] {
						min2[l] = min1[l]
						min1[l] = a
						min1Edge[l] = e
					} else if a < min2[l] {
						min2[l] = a
					}
				}
			}
		} else {
			for _, e := range edges {
				row := bs.varToCheck[int(e)*S : int(e)*S+nAct]
				for l, m := range row {
					a := math.Abs(m)
					if m < 0 {
						negW ^= 1 << uint(l)
					}
					if a < min1[l] {
						min2[l] = min1[l]
						min1[l] = a
						min1Edge[l] = e
					} else if a < min2[l] {
						min2[l] = a
					}
				}
			}
		}
		signW := negW ^ bs.synW[c] // bit set ⇒ negative base sign
		for _, e := range edges {
			base := int(e) * S
			in := bs.varToCheck[base : base+nAct]
			out := bs.checkToVar[base : base+nAct]
			for l, m := range in {
				mag := min1[l]
				if e == min1Edge[l] {
					mag = min2[l]
				}
				s := 1.0
				if signW>>uint(l)&1 != 0 {
					s = -1.0
				}
				if m < 0 {
					s = -s // remove own sign from the product
				}
				out[l] = alpha * s * mag
			}
		}
	}
}

// batchVarUpdate computes variable-to-check messages for the active
// lanes and packs the hard decision (posterior < 0) straight into the
// bit-sliced hardW words — the posterior itself never hits memory. Per
// lane the summation order matches the scalar varUpdate exactly.
//
//vegapunk:hotpath
func (d *Decoder) batchVarUpdate(nAct int) {
	g := d.g
	bs := d.batch
	S := bs.lanes
	sum := bs.sum[:nAct]
	for v := 0; v < g.NumVars; v++ {
		edges := g.VarEdges(v)
		p := d.prior[v]
		for l := range sum {
			sum[l] = p
		}
		for _, e := range edges {
			row := bs.checkToVar[int(e)*S : int(e)*S+nAct]
			for l, m := range row {
				sum[l] += m
			}
		}
		var w uint64
		for l, s := range sum {
			if s < 0 {
				w |= 1 << uint(l)
			}
		}
		bs.hardW[v] = w
		for _, e := range edges {
			base := int(e) * S
			ctv := bs.checkToVar[base : base+nAct]
			vtc := bs.varToCheck[base : base+nAct]
			for l, m := range ctv {
				vtc[l] = sum[l] - m
			}
		}
	}
}

// batchResidual checks every active lane's syndrome with one parity
// sweep over the check adjacency — the 64-wide bit-sliced residual —
// and returns the word of lanes that newly converged this iteration.
//
//vegapunk:hotpath
func (d *Decoder) batchResidual(nAct int) uint64 {
	g := d.g
	bs := d.batch
	activeMask := ^uint64(0) >> uint(64-nAct)
	var fail uint64
	for c := 0; c < g.NumChecks; c++ {
		var par uint64
		for _, e := range g.CheckEdges(c) {
			par ^= bs.hardW[g.VarOf[e]]
		}
		fail |= par ^ bs.synW[c]
		if fail&activeMask == activeMask {
			return 0 // every active lane already failed some check
		}
	}
	return activeMask &^ fail
}
