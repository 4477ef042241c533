package dem

import (
	"fmt"

	"vegapunk/internal/gf2"
)

// SpaceTime unrolls a per-round model over the given number of rounds
// into one space-time detector error model, in the syndrome-difference
// convention: detectors of round r report the XOR of consecutive
// syndrome measurements, so
//
//   - data-affecting mechanisms of round r flip only round-r detectors
//     (their effect persists and cancels in later differences), and
//   - single-detector mechanisms (measurement/reset errors) flip the
//     detector in round r and, when it exists, round r+1.
//
// This is the batch-decoding formulation used by sliding-window decoders
// (the paper's related work, e.g. BP+GDG): one decode handles all
// rounds jointly instead of round-by-round. It is an extension beyond
// the paper's per-round evaluation and lets every decoder here run in
// space-time mode unchanged.
func SpaceTime(m *Model, rounds int) *Model {
	if rounds < 1 {
		rounds = 1
	}
	nm := m.NumMech()
	out := &Model{
		Name:   fmt.Sprintf("%s x%d rounds (space-time)", m.Name, rounds),
		NumDet: m.NumDet * rounds,
		NumObs: m.NumObs,
	}
	mech := make([][]int32, nm*rounds)
	obs := make([][]int32, nm*rounds)
	out.Prior = make([]float64, nm*rounds)
	for r := 0; r < rounds; r++ {
		off := r * nm
		detOff := int32(r * m.NumDet)
		for j := 0; j < nm; j++ {
			sup := m.Mech.ColSpan(j)
			obs[off+j] = m.Obs.ColSpan(j)
			var st []int32
			if len(sup) == 1 && len(obs[off+j]) == 0 && r+1 < rounds {
				// Measurement-like mechanism: straddles two rounds.
				st = []int32{detOff + sup[0], detOff + int32(m.NumDet) + sup[0]}
			} else {
				st = make([]int32, len(sup))
				for i, d := range sup {
					st[i] = detOff + d
				}
			}
			mech[off+j] = st
			out.Prior[off+j] = m.Prior[j]
		}
	}
	out.Mech = gf2.CSCFromSupports(out.NumDet, mech)
	out.Obs = gf2.CSCFromSupports(m.NumObs, obs)
	return out
}
