package sim

import (
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/core"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
)

// satisfying wraps a decoder and counts the decodes whose correction
// does not reproduce the syndrome (the paper's D·ê = s, which Algorithm 1
// guarantees by construction for Vegapunk and Relay-BP all but reaches).
type satisfying struct {
	core.Decoder
	model    *dem.Model
	got      gf2.Vec
	violated *int
}

func (d satisfying) Decode(s gf2.Vec) (gf2.Vec, core.Stats) {
	e, st := d.Decoder.Decode(s)
	d.model.SyndromeInto(d.got, e)
	if !d.got.Equal(s) {
		*d.violated++
	}
	return e, st
}

// TestAccuracyOrderings is the accuracy gate: a seeded, fixed-shot
// single-round memory experiment asserting the decoder orderings
// EXPERIMENTS.md states, as statements about 95 % Wilson intervals, so a
// kernel change cannot trade accuracy unnoticed. All four decoders see
// the same sampled errors. Asserted: on the BB codes plain min-sum BP —
// the paper's baseline, core.NewMinSumBP — sits above both accurate
// decoders (figures 2, 3a, 10); on every code Vegapunk is never above
// BP+OSD-CS(7) (figure 10's "≈, or beats outright"), and on HP
// [[162,2,4]], where all three cluster, the two intervals overlap; every
// Vegapunk correction satisfies its syndrome. On the BB codes Relay-BP —
// what core.NewBP builds and vegapunkd serves — is never above
// BP+OSD-CS(7) either, leaves at most one syndrome in a thousand
// unsatisfied, where plain BP leaves one in ten, and with its ensemble
// fails on no more shots than the first-solution relay of PR 21 did on
// the same ones, leaving the same number unsatisfied.
// Not asserted: any BP ordering on HP [[162,2,4]] (there "BP nearly
// matches BP+OSD"), and Vegapunk strictly below BP+OSD on BB72, which
// holds on both seeds here by a margin too thin to gate on —
// EXPERIMENTS.md "Accuracy gate" records the intervals.
func TestAccuracyOrderings(t *testing.T) {
	const shots = 4096
	bb, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	bb144, err := code.NewBBByIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		model *dem.Model
		opts  decouple.Options
		// bb: plain BP(30) lies above both accurate decoders, and the
		// Relay-BP row is asserted.
		// cluster: Vegapunk and BP+OSD-CS(7) overlap, not merely
		// Vegapunk no worse.
		bb, cluster bool
		// firstSolution holds what Relay-BP stopping at its first solution
		// (PR 21) scored on these shots, per seed: failures, unsatisfied.
		firstSolution map[uint64][2]int
	}{
		{dem.CircuitLevel(bb, 0.003), decouple.Options{Seed: 7}, true, false, map[uint64][2]int{16: {9, 2}, 2025: {6, 1}}},
		{dem.CircuitLevel(bb144, 0.003), decouple.Options{Seed: 7}, true, false, map[uint64][2]int{16: {18, 1}, 2025: {21, 2}}},
		{dem.Phenomenological(hp, 0.003, 0.003), decouple.Options{HintKs: []int{9}}, false, true, nil},
	} {
		model := tc.model
		dcp, err := decouple.Decouple(model.CheckMatrix(), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		violated, relayUnsat := 0, 0
		checked := func(d core.Decoder, violated *int) core.Decoder {
			return satisfying{Decoder: d, model: model, got: gf2.NewVec(model.NumDet), violated: violated}
		}
		vegapunk := func() core.Decoder {
			return checked(core.NewVegapunkFrom(model, dcp, hier.Config{}), &violated)
		}
		for _, seed := range []uint64{16, 2025} {
			run := func(f core.Factory) LERResult {
				return RunMemory(model, f, MemoryConfig{Rounds: 1, Shots: shots, Seed: seed})
			}
			bp := run(func() core.Decoder { return core.NewMinSumBP(model, 30) })
			osd := run(func() core.Decoder { return core.NewBPOSD(model, 30, 7) })
			vp := run(vegapunk)
			relayUnsat = 0
			relay := run(func() core.Decoder { return checked(core.NewBP(model, 30), &relayUnsat) })
			t.Logf("%s seed %d: BP(30) %d/%d [%.4f, %.4f]  BP+OSD-CS(7) %d/%d [%.4f, %.4f]  Vegapunk %d/%d [%.4f, %.4f]  Relay-BP(30) %d/%d [%.4f, %.4f], %d unsatisfied",
				model.Name, seed, bp.Failures, bp.Shots, bp.CILow, bp.CIHigh,
				osd.Failures, osd.Shots, osd.CILow, osd.CIHigh, vp.Failures, vp.Shots, vp.CILow, vp.CIHigh,
				relay.Failures, relay.Shots, relay.CILow, relay.CIHigh, relayUnsat)

			if violated != 0 {
				t.Errorf("%s seed %d: %d Vegapunk corrections do not satisfy their syndrome", model.Name, seed, violated)
			}
			if vp.CILow > osd.CIHigh {
				t.Errorf("%s seed %d: Vegapunk [%.4f, %.4f] is above BP+OSD-CS(7) [%.4f, %.4f]",
					model.Name, seed, vp.CILow, vp.CIHigh, osd.CILow, osd.CIHigh)
			}
			if tc.cluster && osd.CILow > vp.CIHigh {
				t.Errorf("%s seed %d: Vegapunk [%.4f, %.4f] and BP+OSD-CS(7) [%.4f, %.4f] do not overlap",
					model.Name, seed, vp.CILow, vp.CIHigh, osd.CILow, osd.CIHigh)
			}
			if !tc.bb {
				continue
			}
			if bp.CILow <= osd.CIHigh || bp.CILow <= vp.CIHigh {
				t.Errorf("%s seed %d: BP(30) [%.4f, %.4f] is not above BP+OSD-CS(7) [%.4f, %.4f] and Vegapunk [%.4f, %.4f]",
					model.Name, seed, bp.CILow, bp.CIHigh, osd.CILow, osd.CIHigh, vp.CILow, vp.CIHigh)
			}
			if relay.CILow > osd.CIHigh {
				t.Errorf("%s seed %d: Relay-BP(30) [%.4f, %.4f] is above BP+OSD-CS(7) [%.4f, %.4f]",
					model.Name, seed, relay.CILow, relay.CIHigh, osd.CILow, osd.CIHigh)
			}
			if 1000*relayUnsat > relay.Shots {
				t.Errorf("%s seed %d: %d of %d Relay-BP(30) corrections do not satisfy their syndrome, more than 1 in 1000",
					model.Name, seed, relayUnsat, relay.Shots)
			}
			if first := tc.firstSolution[seed]; relay.Failures > first[0] || relayUnsat != first[1] {
				t.Errorf("%s seed %d: Relay-BP(30) fails on %d shots and leaves %d unsatisfied, at its first solution %d and %d",
					model.Name, seed, relay.Failures, relayUnsat, first[0], first[1])
			}
		}
	}
}
