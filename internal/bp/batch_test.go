package bp

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

func sampleSyndromesSeed(model *dem.Model, n int, seed uint64) []gf2.Vec {
	rng := rand.New(rand.NewPCG(seed, 7))
	out := make([]gf2.Vec, n)
	for i := range out {
		out[i] = model.Syndrome(model.Sample(rng))
	}
	return out
}

// unsolvedSyndromes returns n sampled syndromes that plain min-sum does
// not solve within maxIters: under relay each of them leaves leg 0
// unsolved and needs the memory legs.
func unsolvedSyndromes(tb testing.TB, model *dem.Model, maxIters, n int, seed uint64) []gf2.Vec {
	tb.Helper()
	plain := New(model.Mech, model.LLRs(), Config{MaxIters: maxIters})
	rng := rand.New(rand.NewPCG(seed, 7))
	out := make([]gf2.Vec, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 1000*n {
			tb.Fatalf("only %d unsolved syndromes in %d samples", len(out), tries)
		}
		if s := model.Syndrome(model.Sample(rng)); !plain.Decode(s).Converged {
			out = append(out, s)
		}
	}
	return out
}

// stallingPool returns n sampled syndromes of which every third is
// replaced by an unsolved one — the ones relay needs its memory legs
// for.
func stallingPool(tb testing.TB, model *dem.Model, maxIters, n int, seed uint64) []gf2.Vec {
	tb.Helper()
	out := sampleSyndromesSeed(model, n, seed)
	for i, s := range unsolvedSyndromes(tb, model, maxIters, (n+2)/3, seed) {
		out[3*i] = s
	}
	return out
}

// TestDecodeBatchMatchesSerial pins the capability's contract:
// DecodeBatch output and stats are bit-identical to N serial Decode
// calls, for every pinned batch size — around one 64-lane micro-batch
// and well above it — including reuse of one decoder instance, and its
// owned stats, across differently-sized batches. The relay row runs
// over pools in which every third lane stalls in leg 0.
func TestDecodeBatchMatchesSerial(t *testing.T) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model *dem.Model
		cfg   Config
	}{
		{"plain", dem.CodeCapacity(c, 0.05), Config{MaxIters: 30}},
		{"relay", dem.CircuitLevel(c, 0.003), Config{MaxIters: 30, Legs: 8}},
	} {
		model := tc.model
		serial := New(model.Mech, model.LLRs(), tc.cfg)
		batched := New(model.Mech, model.LLRs(), tc.cfg)
		for _, size := range []int{1, 3, 63, 64, 65, 200} {
			syns := sampleSyndromesSeed(model, size, uint64(size))
			if tc.cfg.Legs > 0 {
				syns = stallingPool(t, model, tc.cfg.MaxIters, size, uint64(size))
			}
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
				t.Fatalf("%s size %d: got %d stats", tc.name, size, len(stats))
			}
			conv := 0
			for i := range syns {
				if !out[i].Equal(want[i]) {
					t.Errorf("%s size %d lane %d: batch output differs from serial", tc.name, size, i)
				}
				if stats[i] != wantStats[i] {
					t.Errorf("%s size %d lane %d: stats %+v != serial %+v", tc.name, size, i, stats[i], wantStats[i])
				}
				if stats[i].Converged {
					conv++
				}
			}
			if conv == 0 {
				t.Errorf("%s size %d: no lane converged — test exercises nothing", tc.name, size)
			}
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
