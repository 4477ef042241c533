package core

import "vegapunk/internal/gf2"

// Batched decoding capability. A decoder that is worth handing a whole
// micro-batch implements BatchDecoder: hier, whose kernel amortizes work
// across syndromes (bit-sliced transform, batched base level), and bp,
// whose DecodeBatch is a loop over its one scalar kernel but whose
// decodes are short enough that one dispatch per batch instead of per
// syndrome is the gain. Everything else is served by the DecodeBatch
// helper's serial fallback. The serving layer detects the capability
// once at pool construction and dispatches whole micro-batches through
// it.

// BatchDecoder is the optional batched-decoding capability.
//
// DecodeBatch decodes syndromes[i] into out[i] for every i, with
// results bit-identical to len(syndromes) serial Decode calls. The out
// vectors are caller-owned destinations (each of mechanism length) —
// unlike Decode's returned vector, they remain valid after the next
// call. The returned stats slice is owned by the decoder and valid only
// until its next DecodeBatch call. Like Decode, DecodeBatch is not safe
// for concurrent use on one instance.
type BatchDecoder interface {
	Decoder
	DecodeBatch(syndromes []gf2.Vec, out []gf2.Vec) []Stats
}

// DecodeBatch decodes a batch through d's BatchDecoder capability when
// present, or a serial per-syndrome loop otherwise (each result copied
// into the caller's out vector before the decoder reuses its buffer).
// stats is the caller's destination (len ≥ len(syndromes)); the filled
// prefix is returned. Either way the results are exactly those of
// len(syndromes) serial Decode calls.
//
//vegapunk:hotpath
func DecodeBatch(d Decoder, syndromes []gf2.Vec, out []gf2.Vec, stats []Stats) []Stats {
	n := len(syndromes)
	if len(out) < n || len(stats) < n {
		panic("core: DecodeBatch with fewer outputs or stats than syndromes")
	}
	if bd, ok := d.(BatchDecoder); ok {
		copy(stats, bd.DecodeBatch(syndromes, out))
		return stats[:n]
	}
	for i, s := range syndromes {
		e, st := d.Decode(s)
		out[i].CopyFrom(e)
		stats[i] = st
	}
	return stats[:n]
}

// ensureStats grows (never shrinks) a wrapper-owned Stats scratch.
func ensureStats(buf []Stats, n int) []Stats {
	if cap(buf) < n {
		buf = make([]Stats, n) //vegapunk:allow(alloc) stats growth to the largest batch seen, then reused
	}
	return buf[:n]
}

// DecodeBatch implements BatchDecoder via bp's loop over Decode.
//
//vegapunk:hotpath
func (b *bpDecoder) DecodeBatch(syndromes []gf2.Vec, out []gf2.Vec) []Stats {
	ls := b.d.DecodeBatch(syndromes, out)
	b.stats = ensureStats(b.stats, len(ls))
	for i, s := range ls {
		b.stats[i] = Stats{BPIters: s.Iters, BPConverged: s.Converged}
	}
	return b.stats
}

// DecodeBatch implements BatchDecoder via hier's bit-sliced transform
// and batched base level.
//
//vegapunk:hotpath
func (v *Vegapunk) DecodeBatch(syndromes []gf2.Vec, out []gf2.Vec) []Stats {
	trs := v.online.DecodeBatch(syndromes, out)
	v.stats = ensureStats(v.stats, len(trs))
	for i, tr := range trs {
		v.stats[i] = Stats{Hier: tr}
	}
	return v.stats
}
