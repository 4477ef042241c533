package hier

import (
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// Batched decoding. The hierarchical decoder's front half is dominated
// by structure traversals — the syndrome transform T·s and the level-0
// block solves — whose index streams are identical for every syndrome.
// DecodeBatch amortizes them across up to 64 lanes: the transform is
// bit-sliced (one sweep over T's row ROM computes all 64 transformed
// syndromes, one lane per word bit), and the base level runs blocks
// outer / lanes inner so each block's column metadata is loaded once
// per batch instead of once per syndrome. The outer right-error rounds
// escalate per lane onto the scalar path — their control flow is
// data-dependent (candidate argmin, early exit), so lanes diverge and
// batching them would serialize anyway.
//
// Per lane the arithmetic is exactly the scalar Decode's (GF(2) is
// exact, and the block solves and outer rounds reuse the same code), so
// a batch decode is bit-identical to len(syndromes) serial calls —
// pinned by TestDecodeBatchMatchesSerial.

// hbatch owns the batched path's buffers, sized on first use and reused
// (the steady state allocates nothing).
type hbatch struct {
	tcsr *gf2.CSR  // cached flat row view of T, materialized off the hot path
	synW []uint64  // bit-sliced input syndromes, M words
	spW  []uint64  // bit-sliced transformed syndromes, M words
	sp   []gf2.Vec // per-lane transformed syndrome, lanes × M bits

	// sols holds each lane's committed base-level block solutions; the
	// escalation stage swaps a lane's slice with d.sols so the scalar
	// outer loop runs unchanged.
	sols [][]blockSol

	traces []Trace // per-lane results, len grown to the batch size
}

// ensureBatch readies the batch scratch for chunks of L lanes and a
// trace slice of n lanes, growing (never shrinking) on demand.
func (d *Decoder) ensureBatch(L, n int) {
	if d.hb == nil {
		d.hb = &hbatch{}         //vegapunk:allow(alloc) first DecodeBatch constructs the owned scratch; reused afterwards
		d.hb.tcsr = d.dec.TCSR() //vegapunk:allow(alloc) Decoupling's lazy CSR view of T, built once and cached for every chunk
	}
	hb := d.hb
	if len(hb.sp) < L {
		hb.synW = make([]uint64, d.dec.M) //vegapunk:allow(alloc) scratch growth to the widest batch seen, then reused
		hb.spW = make([]uint64, d.dec.M)  //vegapunk:allow(alloc) scratch growth to the widest batch seen, then reused
		hb.sp = make([]gf2.Vec, L)        //vegapunk:allow(alloc) scratch growth to the widest batch seen, then reused
		hb.sols = make([][]blockSol, L)   //vegapunk:allow(alloc) scratch growth to the widest batch seen, then reused
		for l := range hb.sp {
			hb.sp[l] = gf2.NewVec(d.dec.M) //vegapunk:allow(alloc) scratch growth to the widest batch seen, then reused
			hb.sols[l] = newBlockSols(d, d.dec.K)
		}
	}
	if cap(hb.traces) < n {
		hb.traces = make([]Trace, n) //vegapunk:allow(alloc) trace growth to the largest batch seen, then reused
	}
	hb.traces = hb.traces[:n]
}

// DecodeBatch decodes syndromes[i] into out[i] for every i, exactly as
// len(syndromes) serial Decode calls would (bit-identical errors and
// traces). out vectors are caller-owned destinations of length N; the
// returned trace slice is owned by the decoder and valid until the next
// DecodeBatch call. Batches wider than gf2.MaxLanes are processed in
// 64-lane chunks through the same owned scratch.
//
//vegapunk:hotpath
func (d *Decoder) DecodeBatch(syndromes []gf2.Vec, out []gf2.Vec) []Trace {
	n := len(syndromes)
	if len(out) < n {
		panic("hier: DecodeBatch with fewer outputs than syndromes")
	}
	if n == 0 {
		return nil
	}
	for _, s := range syndromes {
		if s.Len() != d.dec.M {
			panic("hier: DecodeBatch syndrome length mismatch")
		}
	}
	L := n
	if L > gf2.MaxLanes {
		L = gf2.MaxLanes
	}
	d.ensureBatch(L, n)
	traces := d.hb.traces
	for off := 0; off < n; off += gf2.MaxLanes {
		end := off + gf2.MaxLanes
		if end > n {
			end = n
		}
		d.decodeChunk(syndromes[off:end], out[off:end], traces[off:end])
	}
	return traces
}

// decodeChunk runs one ≤64-lane chunk: bit-sliced transform, batched
// base level, then per-lane escalation onto the scalar outer loop.
//
//vegapunk:hotpath
func (d *Decoder) decodeChunk(syns, outs []gf2.Vec, traces []Trace) {
	dec := d.dec
	hb := d.hb
	L := len(syns)

	// Bit-sliced syndrome transform: one traversal of T's row ROM
	// computes s' for every lane (GF(2) is exact, so this is
	// bit-identical to L dense multiplies).
	gf2.PackLanesInto(hb.synW, syns)
	tcsr := hb.tcsr
	for i := 0; i < dec.M; i++ {
		var w uint64
		for _, j := range tcsr.RowSpan(i) {
			w ^= hb.synW[j]
		}
		hb.spW[i] = w
	}
	for l := 0; l < L; l++ {
		gf2.LaneUnpackInto(hb.sp[l], hb.spW, l)
		traces[l] = Trace{}
	}

	// Batched base level: blocks outer, lanes inner, so block g's column
	// metadata (CSC spans, row masks) is hot for all L solves.
	t := d.probe.Tick()
	for g := 0; g < dec.K; g++ {
		for l := 0; l < L; l++ {
			d.sliceInto(d.cand, hb.sp[l], g)
			d.greedyGuess(g, d.cand, &hb.sols[l][g])
			traces[l].solved(&hb.sols[l][g])
		}
	}
	d.probe.SpanSince(obs.StageHierBase, L*dec.K, t)

	// Per-lane escalation: the data-dependent outer rounds and assembly
	// run on the scalar path, against the lane's committed base state
	// (swapped into d.sols so the shared code is untouched).
	for l := 0; l < L; l++ {
		d.reset(hb.sp[l])
		d.sols, hb.sols[l] = hb.sols[l], d.sols
		dMin := d.outerLoop(&traces[l])
		d.assembleInto(outs[l], dMin, &traces[l])
	}
}
