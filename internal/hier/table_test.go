package hier

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

func sampleSyndromes(model *dem.Model, n int, seed uint64) []gf2.Vec {
	rng := rand.New(rand.NewPCG(seed, 13))
	out := make([]gf2.Vec, n)
	for i := range out {
		out[i] = model.Syndrome(model.Sample(rng))
	}
	return out
}

// TestTableFirstPassMissShare reports (run with -v) how often the
// objective table misses on a first pass over syndromes it has never
// seen: the property that makes the table pay outside a benchmark that
// cycles its pool. It asserts only that most probes hit.
func TestTableFirstPassMissShare(t *testing.T) {
	hp := func(p float64) func() (*dem.Model, error) {
		return func() (*dem.Model, error) {
			c, err := code.NewHPByIndex(0)
			if err != nil {
				return nil, err
			}
			return dem.Phenomenological(c, p, p), nil
		}
	}
	for _, p := range []float64{0.003, 0.005} {
		for _, c := range []struct {
			name  string
			model func() (*dem.Model, error)
			opts  decouple.Options
		}{
			{"BB72", bbCircuit(0, p), decouple.Options{Seed: 7}},
			{"BB144", bbCircuit(3, p), decouple.Options{Seed: 7}},
			{"HP162", hp(p), decouple.Options{HintKs: []int{9}}},
		} {
			model, err := c.model()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := decouple.Decouple(model.CheckMatrix(), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			d := New(dec, model.LLRs(), Config{})
			for _, s := range sampleSyndromes(model, 4096, 77) {
				d.Decode(s)
			}
			t.Logf("%s p=%g: first pass over 4096 fresh syndromes: %d misses of %d probes (%.2f %%), %d entries per block",
				c.name, p, d.misses, d.probes, 100*float64(d.misses)/float64(d.probes), 1<<d.tableBits)
			if d.misses*10 > d.probes {
				t.Errorf("%s p=%g: table misses %d of %d probes", c.name, p, d.misses, d.probes)
			}
		}
	}
}

// bbCircuitFixture decouples the circuit-level model of BB registry
// code index at physical error rate p, with the golden tests' seed.
func bbCircuitFixture(tb testing.TB, index int, p float64) (*dem.Model, *decouple.Decoupling) {
	tb.Helper()
	model, err := bbCircuit(index, p)()
	if err != nil {
		tb.Fatal(err)
	}
	dec, err := decouple.Decouple(model.CheckMatrix(), decouple.Options{Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return model, dec
}

// bb144Fixture is the benchmark's headline code at physical error rate p.
func bb144Fixture(t *testing.T, p float64) (*dem.Model, *decouple.Decoupling) {
	return bbCircuitFixture(t, 3, p)
}

// TestTableEvictionKeepsAnswers drives the table where it must evict:
// BB [[144,12,12]] at p = 0.02 spreads each block's 2^18 possible local
// syndromes over 2^12 slots. Every correction still equals the
// reference, which has no table.
func TestTableEvictionKeepsAnswers(t *testing.T) {
	shots := 2000
	if testing.Short() {
		shots = 200
	}
	model, dec := bb144Fixture(t, 0.02)
	d := New(dec, model.LLRs(), Config{})
	for shot, syn := range sampleSyndromes(model, shots, 144) {
		got, _ := d.Decode(syn)
		if want := refHierDecode(dec, model.LLRs(), Config{}, syn, false); !got.Equal(want) {
			t.Fatalf("shot %d: decode differs from the reference", shot)
		}
	}
	if evictions := d.misses - dec.K<<d.tableBits; evictions <= 0 {
		t.Errorf("%d misses over %d slots: the table never had to evict", d.misses, dec.K<<d.tableBits)
	}
}

// TestTableSurvivesMaxItersChanges retunes the outer-round cap between
// decodes on one decoder (what core's SetTier does under overload): the
// table's entries depend on neither, so each answer and trace equals a
// decoder built with that cap.
func TestTableSurvivesMaxItersChanges(t *testing.T) {
	model, dec := bb144Fixture(t, 0.01)
	d := New(dec, model.LLRs(), Config{})
	fresh := map[int]*Decoder{}
	for _, m := range []int{1, 2, 3} {
		fresh[m] = New(dec, model.LLRs(), Config{MaxIters: m})
	}
	for shot, syn := range sampleSyndromes(model, 600, 5) {
		m := 1 + (shot*7)%3
		d.SetMaxIters(m)
		got, gotTr := d.Decode(syn)
		want, wantTr := fresh[m].Decode(syn)
		if !got.Equal(want) || gotTr != wantTr {
			t.Fatalf("shot %d at MaxIters %d: retuned decoder %+v differs from a fresh one %+v", shot, m, gotTr, wantTr)
		}
		if ref := refHierDecode(dec, model.LLRs(), Config{MaxIters: m}, syn, false); shot < 100 && !got.Equal(ref) {
			t.Fatalf("shot %d at MaxIters %d: decode differs from the reference", shot, m)
		}
	}
}

// TestTableWithSignedWeights turns pruning off (some weights negative)
// with the table on: the zero syndrome's objective is then not zero, and
// every decode still equals the reference.
func TestTableWithSignedWeights(t *testing.T) {
	model, dec := bbFixture(t)
	rng := rand.New(rand.NewPCG(8, 15))
	w := model.LLRs()
	for j := range w {
		if rng.IntN(5) == 0 {
			w[j] = -w[j]
		}
	}
	d := New(dec, w, Config{})
	if d.pruned || d.table == nil {
		t.Fatalf("pruned %v, table %v; want pruning off and the table on", d.pruned, d.table != nil)
	}
	for shot := 0; shot < 200; shot++ {
		syn := randSyndrome(rng, dec.M, 2+shot%9)
		got, _ := d.Decode(syn)
		if want := refHierDecode(dec, w, Config{}, syn, false); !got.Equal(want) {
			t.Fatalf("shot %d: decode differs from the reference", shot)
		}
	}
}

// TestDecodeAllocatesNothing pins the steady state at zero allocations
// on both benchmark codes, table warm or not.
func TestDecodeAllocatesNothing(t *testing.T) {
	for _, fix := range []func(*testing.T) (*dem.Model, *decouple.Decoupling){
		bbFixture,
		func(t *testing.T) (*dem.Model, *decouple.Decoupling) { return bb144Fixture(t, 0.003) },
	} {
		model, dec := fix(t)
		d := New(dec, model.LLRs(), Config{})
		syns := sampleSyndromes(model, 256, 21)
		i := 0
		if n := testing.AllocsPerRun(200, func() {
			d.Decode(syns[i%len(syns)])
			i++
		}); n != 0 {
			t.Errorf("%s: Decode allocates %v per run", model.Name, n)
		}
	}
}
