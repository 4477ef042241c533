package hier

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// batchSizes is the pinned batch≡serial identity matrix: below, at and
// above one bit-sliced word, plus a multi-chunk size.
var batchSizes = []int{1, 3, 63, 64, 65, 200}

func sampleSyndromes(model *dem.Model, n int, seed uint64) []gf2.Vec {
	rng := rand.New(rand.NewPCG(seed, 13))
	out := make([]gf2.Vec, n)
	for i := range out {
		out[i] = model.Syndrome(model.Sample(rng))
	}
	return out
}

// TestDecodeBatchMatchesSerial pins the tentpole contract for the
// hierarchical decoder: DecodeBatch output and traces are bit-identical
// to N serial Decode calls, for every pinned batch size, reusing one
// instance across differently-sized batches.
func TestDecodeBatchMatchesSerial(t *testing.T) {
	for _, fix := range []func(*testing.T) (*dem.Model, *decouple.Decoupling){hpFixture, bbFixture} {
		model, dec := fix(t)
		serial := New(dec, model.LLRs(), Config{})
		batched := New(dec, model.LLRs(), Config{})

		for _, size := range batchSizes {
			syns := sampleSyndromes(model, size, uint64(size))
			want := make([]gf2.Vec, size)
			wantTr := make([]Trace, size)
			for i, s := range syns {
				e, tr := serial.Decode(s)
				want[i] = e.Clone()
				wantTr[i] = tr
			}
			out := make([]gf2.Vec, size)
			for i := range out {
				out[i] = gf2.NewVec(model.NumMech())
			}
			traces := batched.DecodeBatch(syns, out)
			if len(traces) != size {
				t.Fatalf("%s size %d: got %d traces", model.Name, size, len(traces))
			}
			for i := range syns {
				if !out[i].Equal(want[i]) {
					t.Errorf("%s size %d lane %d: batch output differs from serial", model.Name, size, i)
				}
				if traces[i] != wantTr[i] {
					t.Errorf("%s size %d lane %d: trace %+v != serial %+v", model.Name, size, i, traces[i], wantTr[i])
				}
			}
		}
	}
}

// TestDecodeBatchInterleavedWithSerial checks that mixing Decode and
// DecodeBatch on one instance never bleeds state between the paths: the
// block slices, the solutions both swap through d.sols, and the objective
// table both fill. The reference has none of the three.
func TestDecodeBatchInterleavedWithSerial(t *testing.T) {
	for _, fix := range []func(*testing.T) (*dem.Model, *decouple.Decoupling){hpFixture, bbFixture} {
		model, dec := fix(t)
		d := New(dec, model.LLRs(), Config{})
		fresh := New(dec, model.LLRs(), Config{})
		syns := sampleSyndromes(model, 12, 3)
		out := make([]gf2.Vec, len(syns))
		for i := range out {
			out[i] = gf2.NewVec(model.NumMech())
		}
		for round := 0; round < 3; round++ {
			traces := d.DecodeBatch(syns, out)
			for i, s := range syns {
				wantE := refHierDecode(dec, model.LLRs(), Config{}, s, false)
				if !out[i].Equal(wantE) {
					t.Fatalf("%s round %d lane %d: batch differs after interleaving", model.Name, round, i)
				}
				_, wantTr := fresh.Decode(s)
				gotE, gotTr := d.Decode(s)
				if !gotE.Equal(wantE) || gotTr != wantTr || traces[i] != wantTr {
					t.Fatalf("%s round %d lane %d: serial differs after batch", model.Name, round, i)
				}
			}
		}
	}
}
