package hier

import (
	"slices"
	"testing"

	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// fullPass is Decode with the zero exit disabled: the reference the exit
// is compared against.
func fullPass(d *Decoder, s gf2.Vec) (gf2.Vec, Trace) {
	d.zeroSeen = false
	return d.Decode(s)
}

// zeroFixtures are the golden suite's three shapes: HP [[162,2,4]] and
// the two benchmark codes.
var zeroFixtures = []func(*testing.T) (*dem.Model, *decouple.Decoupling){
	hpFixture,
	bbFixture,
	func(t *testing.T) (*dem.Model, *decouple.Decoupling) { return bb144Fixture(t, 0.003) },
}

// TestZeroExitEqualsFullPass pins the zero exit to the pass it skips.
func TestZeroExitEqualsFullPass(t *testing.T) {
	t.Run("answers", zeroExitAnswers)
	t.Run("negative-weight", zeroExitOffWithNegativeWeight)
	t.Run("spans", zeroExitSpans)
}

// zeroExitAnswers: at every outer-round cap SetTier can set, on a decoder
// whose first decode is the zero syndrome and on one that has decoded
// others before, zero syndromes interleaved with sampled ones come back
// with the correction and the Trace of a decoder that never takes the
// exit — including after the cap moved under a trace recorded at another
// one. The exit arms on the first zero syndrome and is taken from the
// second on.
func zeroExitAnswers(t *testing.T) {
	for _, fix := range zeroFixtures {
		model, dec := fix(t)
		zero := gf2.NewVec(model.NumDet)
		for _, used := range []bool{false, true} {
			d := New(dec, model.LLRs(), Config{})
			ref := New(dec, model.LLRs(), Config{})
			check := func(when string, s gf2.Vec) {
				t.Helper()
				want, wantTr := fullPass(ref, s)
				got, gotTr := d.Decode(s)
				if !got.Equal(want) || gotTr != wantTr {
					t.Fatalf("%s used=%v %s: %+v, full pass %+v", model.Name, used, when, gotTr, wantTr)
				}
			}
			syns := sampleSyndromes(model, 256, 26)
			if used {
				for _, s := range syns {
					if !s.IsZero() {
						check("warm-up", s)
					}
				}
			}
			if d.zeroSeen {
				t.Fatalf("%s used=%v: exit armed before any zero syndrome", model.Name, used)
			}
			check("first zero", zero)
			if !d.zeroSeen {
				t.Fatalf("%s used=%v: the first zero syndrome did not arm the exit", model.Name, used)
			}
			probes := d.probes
			check("second zero", zero)
			if d.probes != probes {
				t.Fatalf("%s used=%v: the second zero syndrome ran the pass (%d table probes)", model.Name, used, d.probes-probes)
			}
			for _, m := range []int{1, 2, 3, 1} {
				d.SetMaxIters(m)
				ref.SetMaxIters(m)
				for i, s := range syns[:64] {
					check("sampled", s)
					if i%3 == 0 {
						check("interleaved zero", zero)
					}
				}
			}
		}
	}
}

// zeroExitOffWithNegativeWeight negates one weight: pruning is off,
// the zero syndrome's answer need not be zero, and the exit is never
// armed — every answer is the bit-level reference's.
func zeroExitOffWithNegativeWeight(t *testing.T) {
	for _, fix := range zeroFixtures {
		model, dec := fix(t)
		w := slices.Clone(model.LLRs())
		w[len(w)/2] = -w[len(w)/2]
		d := New(dec, w, Config{})
		zero := gf2.NewVec(model.NumDet)
		for i, s := range sampleSyndromes(model, 12, 27) {
			for _, syn := range []gf2.Vec{zero, s} {
				got, _ := d.Decode(syn)
				if want := refHierDecode(dec, w, Config{}, syn, false); !got.Equal(want) {
					t.Fatalf("%s shot %d: decode differs from the reference", model.Name, i)
				}
				if d.zeroSeen {
					t.Fatalf("%s shot %d: exit armed with a negative weight", model.Name, i)
				}
			}
		}
	}
}

// zeroExitSpans activates the probe: the exit records the stages and
// counts of the pass it skips.
func zeroExitSpans(t *testing.T) {
	model, dec := bbFixture(t)
	zero := gf2.NewVec(model.NumDet)
	spans := func(exit bool) []obs.Span {
		d := New(dec, model.LLRs(), Config{})
		d.Decode(zero)
		ring := obs.NewRing(16)
		d.Probe().Activate(ring, 9)
		if exit {
			d.Decode(zero)
		} else {
			fullPass(d, zero)
		}
		d.Probe().Deactivate()
		out := ring.Snapshot(nil)
		for i := range out {
			out[i].Start, out[i].End = 0, 0
		}
		return out
	}
	got, want := spans(true), spans(false)
	if len(want) != 2 || !slices.Equal(got, want) {
		t.Fatalf("exit recorded %+v, the full pass %+v", got, want)
	}
}
