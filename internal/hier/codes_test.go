package hier_test

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/exp"
	"vegapunk/internal/hier"
)

// TestEveryPaperCodeRunsTheWordKernel pins, for all twelve Table 2
// decouplings, what the deleted single-word/bit-at-a-time dispatch got
// wrong for seven of them: f and g sit in ⌈MD/64⌉ and ⌈(ND-MD)/64⌉
// words, pruning is on under LLR weights, the objective table is on and
// within its 256 KiB budget, and sampled decodes equal the bit-level
// reference.
func TestEveryPaperCodeRunsTheWordKernel(t *testing.T) {
	ws := exp.NewWorkspace()
	sawWideG := false
	for _, b := range exp.Benchmarks() {
		dec, err := ws.Decoupling(b)
		if err != nil {
			t.Fatal(err)
		}
		model, err := ws.Model(b, 0.003)
		if err != nil {
			t.Fatal(err)
		}
		d := hier.New(dec, model.LLRs(), hier.Config{})
		fW, gW, pruned, tableBytes := d.Shape()
		nB := dec.ND - dec.MD
		if fW != (dec.MD+63)/64 || gW != (nB+63)/64 {
			t.Errorf("%s: D_i = [%d,%d] runs in %d f words and %d g words", b.Name, dec.MD, dec.ND, fW, gW)
		}
		if !pruned {
			t.Errorf("%s: pruning is off under nonnegative weights", b.Name)
		}
		if tableBytes == 0 || tableBytes > 256<<10 {
			t.Errorf("%s: objective table holds %d bytes, want 1..256 KiB", b.Name, tableBytes)
		}
		sawWideG = sawWideG || gW >= 3
		rng := rand.New(rand.NewPCG(12, uint64(dec.N)))
		for shot := 0; shot < 64; shot++ {
			syn := model.Syndrome(model.Sample(rng))
			got, _ := d.Decode(syn)
			if want := hier.RefHierDecode(dec, model.LLRs(), hier.Config{}, syn, false); !got.Equal(want) {
				t.Fatalf("%s shot %d: decode differs from the reference", b.Name, shot)
			}
		}
		t.Logf("%-18s D_i [%d,%d] K %d: %d+%d words, table %d KiB", b.Name, dec.MD, dec.ND, dec.K, fW, gW, tableBytes>>10)
	}
	if !sawWideG {
		t.Error("no code with three or more g words (BB [[288,12,18]] has 152 B columns)")
	}
}
