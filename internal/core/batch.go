package core

import "vegapunk/internal/gf2"

// DecodeBatch decodes syndromes[i] into out[i] and stats[i] for every i:
// a loop over Decode, each result copied into the caller's out vector
// before the decoder reuses its buffer. stats is the caller's
// destination (len ≥ len(syndromes)); the filled prefix is returned.
// No decoder has a batch kernel and serve runs this loop itself, with
// its fault checks inside; the function remains for benchmark/ledger.go,
// which is frozen and times it for the *.batch64_us_per_syn rows.
func DecodeBatch(d Decoder, syndromes []gf2.Vec, out []gf2.Vec, stats []Stats) []Stats {
	n := len(syndromes)
	if len(out) < n || len(stats) < n {
		panic("core: DecodeBatch with fewer outputs or stats than syndromes")
	}
	for i, s := range syndromes {
		e, st := d.Decode(s)
		out[i].CopyFrom(e)
		stats[i] = st
	}
	return stats[:n]
}
