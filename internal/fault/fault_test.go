package fault

import (
	"hash/fnv"
	"math"
	"testing"

	"vegapunk/internal/core"
)

func TestKindStringRoundTrip(t *testing.T) {
	for k := Pass; k < numKinds; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Fatalf("ParseKind accepted bogus kind")
	}
	if got := Kind(numKinds).String(); got != "invalid" {
		t.Fatalf("out-of-range kind prints %q", got)
	}
}

// TestMixDrawShares draws 100 000 kinds from one stream per Mix and
// checks each kind's share against Mix[k] / max(1, ΣMix): a decoder-style
// Mix of probabilities (Pass takes the rest) and a link-style Mix of
// weights that the draw normalises.
func TestMixDrawShares(t *testing.T) {
	const draws = 100_000
	for _, tc := range []struct {
		name string
		mix  map[Kind]float64
		want map[Kind]float64
	}{
		{"probabilities", map[Kind]float64{Slow: 0.2, Crash: 0.05, Corrupt: 0.1, Stall: 0.15},
			map[Kind]float64{Pass: 0.5, Slow: 0.2, Crash: 0.05, Corrupt: 0.1, Stall: 0.15}},
		{"weights", map[Kind]float64{Corrupt: 3, Tear: 1, Crash: 1, Slow: 1},
			map[Kind]float64{Corrupt: 0.5, Tear: 1.0 / 6, Crash: 1.0 / 6, Slow: 1.0 / 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, rng := newMix(tc.mix), newStream(3, 1)
			var n [numKinds]int
			for i := 0; i < draws; i++ {
				n[w.draw(rng)]++
			}
			for k := Pass; k < numKinds; k++ {
				if got := float64(n[k]) / draws; math.Abs(got-tc.want[k]) > 0.01 {
					t.Errorf("%s share %.4f, want %.4f ± 0.01", k, got, tc.want[k])
				}
			}
		})
	}
}

// TestDecoderScheduleGolden pins the decoder draw: vegapunkd's -chaos
// mix over 3 instances × 20 000 decodes hashes (FNV-64a over the kind
// bytes) and counts exactly as the separate decoder fault package drew
// it before the link layer joined this one, at seeds 1 and 7, except
// that the draws of the deleted skew kind (the last decoder kind, weight
// 0.01) now pass.
func TestDecoderScheduleGolden(t *testing.T) {
	for _, tc := range []struct {
		seed   uint64
		counts [Stall + 1]int
		hash   uint64
	}{
		{1, [...]int{58094, 1180, 298, 309, 119}, 0x87499ebc66d79e6e},
		{7, [...]int{58011, 1227, 316, 310, 136}, 0xfd60c548a7418478},
	} {
		f, _ := Wrap(func() core.Decoder { return nil }, Plan{Seed: tc.seed, Mix: map[Kind]float64{
			Slow: 0.02, Crash: 0.005, Corrupt: 0.005, Stall: 0.002,
		}})
		h := fnv.New64a()
		var counts [Stall + 1]int
		for i := 0; i < 3; i++ {
			d := f().(*decoder)
			for j := 0; j < 20_000; j++ {
				k := d.next()
				counts[k]++
				h.Write([]byte{byte(k)})
			}
		}
		if counts != tc.counts || h.Sum64() != tc.hash {
			t.Errorf("seed %d: counts %v hash %#x, want %v %#x", tc.seed, counts, h.Sum64(), tc.counts, tc.hash)
		}
	}
}
