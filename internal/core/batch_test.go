package core

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
)

func batchFixture(t *testing.T, model *dem.Model, n int, seed uint64) (syns, out []gf2.Vec, stats []Stats) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 21))
	syns = make([]gf2.Vec, n)
	out = make([]gf2.Vec, n)
	for i := range syns {
		syns[i] = model.Syndrome(model.Sample(rng))
		out[i] = gf2.NewVec(model.NumMech())
	}
	return syns, out, make([]Stats, n)
}

// TestDecodeBatchHelperMatchesSerial pins the helper's contract: outputs
// and stats are exactly those of per-syndrome Decode calls.
func TestDecodeBatchHelperMatchesSerial(t *testing.T) {
	model := bb72Model(t)
	veg, err := BuildVegapunk(model, decouple.Options{Seed: 1}, hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	refVeg, err := BuildVegapunk(model, decouple.Options{Seed: 1}, hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		d, ref Decoder
	}{
		{veg, refVeg},
		{NewBP(model, 30), NewBP(model, 30)},
		{NewBPGD(model, 0, 0), NewBPGD(model, 0, 0)},
	}
	for _, tc := range cases {
		syns, out, stats := batchFixture(t, model, 70, 4)
		got := DecodeBatch(tc.d, syns, out, stats)
		if len(got) != len(syns) {
			t.Fatalf("%s: got %d stats", tc.d.Name(), len(got))
		}
		for i, s := range syns {
			wantE, wantSt := tc.ref.Decode(s)
			if !out[i].Equal(wantE) {
				t.Errorf("%s lane %d: batch output differs from serial", tc.d.Name(), i)
			}
			if got[i] != wantSt {
				t.Errorf("%s lane %d: stats %+v != serial %+v", tc.d.Name(), i, got[i], wantSt)
			}
		}
	}
}

// TestDecodeBatchHelperValidates pins the panic contract for
// undersized destination slices.
func TestDecodeBatchHelperValidates(t *testing.T) {
	model := bb72Model(t)
	d := NewBP(model, 30)
	syns, out, stats := batchFixture(t, model, 4, 8)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("short out", func() { DecodeBatch(d, syns, out[:3], stats) })
	mustPanic("short stats", func() { DecodeBatch(d, syns, out, stats[:3]) })
}
