package bp

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// batchSizes is the pinned batch≡serial identity matrix: below, at and
// above one bit-sliced word, plus a multi-chunk size.
var batchSizes = []int{1, 3, 63, 64, 65, 200}

func sampleSyndromesSeed(model *dem.Model, n int, seed uint64) []gf2.Vec {
	rng := rand.New(rand.NewPCG(seed, 7))
	out := make([]gf2.Vec, n)
	for i := range out {
		out[i] = model.Syndrome(model.Sample(rng))
	}
	return out
}

// TestDecodeBatchMatchesSerial pins the tentpole contract: DecodeBatch
// output and stats are bit-identical to N serial Decode calls, for
// every pinned batch size, including reuse of one decoder instance
// across differently-sized batches.
func TestDecodeBatchMatchesSerial(t *testing.T) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CodeCapacity(c, 0.05)
	serial := New(model.Mech, model.LLRs(), Config{MaxIters: 30})
	batched := New(model.Mech, model.LLRs(), Config{MaxIters: 30})

	for _, size := range batchSizes {
		syns := sampleSyndromesSeed(model, size, uint64(size))
		want := make([]gf2.Vec, size)
		wantStats := make([]LaneStats, size)
		for i, s := range syns {
			r := serial.Decode(s)
			want[i] = r.Error.Clone()
			wantStats[i] = LaneStats{Iters: r.Iters, Converged: r.Converged}
		}
		out := make([]gf2.Vec, size)
		for i := range out {
			out[i] = gf2.NewVec(model.NumMech())
		}
		stats := batched.DecodeBatch(syns, out)
		if len(stats) != size {
			t.Fatalf("size %d: got %d stats", size, len(stats))
		}
		conv := 0
		for i := range syns {
			if !out[i].Equal(want[i]) {
				t.Errorf("size %d lane %d: batch output differs from serial", size, i)
			}
			if stats[i] != wantStats[i] {
				t.Errorf("size %d lane %d: stats %+v != serial %+v", size, i, stats[i], wantStats[i])
			}
			if stats[i].Converged {
				conv++
			}
		}
		if conv == 0 {
			t.Errorf("size %d: no lane converged — test exercises nothing", size)
		}
	}
}

// TestDecodeBatchInterleavedWithSerial checks that mixing Decode and
// DecodeBatch on one instance never bleeds state between the paths.
func TestDecodeBatchInterleavedWithSerial(t *testing.T) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CodeCapacity(c, 0.05)
	ref := New(model.Mech, model.LLRs(), Config{MaxIters: 30})
	d := New(model.Mech, model.LLRs(), Config{MaxIters: 30})
	syns := sampleSyndromesSeed(model, 12, 5)
	out := make([]gf2.Vec, len(syns))
	for i := range out {
		out[i] = gf2.NewVec(model.NumMech())
	}
	for round := 0; round < 3; round++ {
		d.DecodeBatch(syns, out)
		for i, s := range syns {
			want := ref.Decode(s)
			if !out[i].Equal(want.Error) {
				t.Fatalf("round %d lane %d: batch differs after interleaving", round, i)
			}
			got := d.Decode(s)
			if !got.Error.Equal(want.Error) {
				t.Fatalf("round %d lane %d: serial differs after batch", round, i)
			}
		}
	}
}
