package hier

import (
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

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

// tableInUse is the bytes of the table's prefix in use: all a decode can
// have touched.
func (d *Decoder) tableInUse() int {
	return d.dec.K << d.tableBits * int(unsafe.Sizeof(objEntry{}))
}

// TestTableFirstDecodeTouchesLittle decodes each of 1 024 sampled
// syndromes (and the zero syndrome) on a fresh decoder and counts the
// table bytes that first decode can have touched. At 99 % of them that
// is at most 4 KiB of BB [[72,12,6]]'s 192 KiB and 16 KiB of
// BB [[144,12,12]]'s 256 KiB; the heaviest syndromes grow it further,
// never past 1/16 of the allocation.
func TestTableFirstDecodeTouchesLittle(t *testing.T) {
	for _, c := range []struct {
		name   string
		index  int
		p99Max int
	}{
		{"BB72", 0, 4 << 10},
		{"BB144", 3, 16 << 10},
	} {
		model, dec := bbCircuitFixture(t, c.index, 0.003)
		syns := append(sampleSyndromes(model, 1024, 41), gf2.NewVec(model.NumDet))
		used := make([]int, len(syns))
		capBytes := 0
		for i, s := range syns {
			d := New(dec, model.LLRs(), Config{})
			d.Decode(s)
			used[i] = d.tableInUse()
			capBytes = len(d.table) * int(unsafe.Sizeof(objEntry{}))
		}
		slices.Sort(used)
		p99, worst := used[len(used)*99/100], used[len(used)-1]
		t.Logf("%s: first decode uses %d B at the median, %d B at p99, %d B at worst, of %d B",
			c.name, used[len(used)/2], p99, worst, capBytes)
		if p99 > c.p99Max || worst > capBytes/16 {
			t.Errorf("%s: first decode uses %d B at p99 (want <= %d) and %d B at worst (want <= %d)",
				c.name, p99, c.p99Max, worst, capBytes/16)
		}
	}
}

// TestTableGrowsToCap drives BB [[144,12,12]] at p = 0.02 until the table
// has grown to its cap, which is the allocation: 256 KiB, the size it
// had before it grew. Every answer on the way equals the reference.
func TestTableGrowsToCap(t *testing.T) {
	model, dec := bb144Fixture(t, 0.02)
	d := New(dec, model.LLRs(), Config{})
	if d.tableBits != tableStartBits {
		t.Fatalf("fresh table has %d bits per block, want %d", d.tableBits, tableStartBits)
	}
	for shot, syn := range sampleSyndromes(model, 500, 145) {
		got, _ := d.Decode(syn)
		if want := refHierDecode(dec, model.LLRs(), Config{}, syn, false); !got.Equal(want) {
			t.Fatalf("shot %d at %d table bits: decode differs from the reference", shot, d.tableBits)
		}
		if d.tableBits == d.maxBits {
			t.Logf("cap reached after %d decodes, %d misses", shot+1, d.misses)
			break
		}
	}
	if d.tableBits != d.maxBits || d.tableInUse() != 256<<10 || len(d.table) != dec.K<<d.maxBits {
		t.Errorf("table at %d of %d bits, %d B in use of %d entries; want the 256 KiB cap",
			d.tableBits, d.maxBits, d.tableInUse(), len(d.table))
	}
}

// TestTableGrowthWithSignedWeights repeats TestTableWithSignedWeights'
// check on both benchmark codes through every growth of the table: each
// growth moves every entry and must leave slot 0 of every block with the
// zero syndrome's objective, which is not zero under signed weights,
// unless another key took it.
func TestTableGrowthWithSignedWeights(t *testing.T) {
	for _, fix := range []func(*testing.T) (*dem.Model, *decouple.Decoupling){
		bbFixture,
		func(t *testing.T) (*dem.Model, *decouple.Decoupling) { return bb144Fixture(t, 0.003) },
	} {
		model, dec := fix(t)
		rng := rand.New(rand.NewPCG(9, uint64(dec.M)))
		w := model.LLRs()
		for j := range w {
			if rng.IntN(5) == 0 {
				w[j] = -w[j]
			}
		}
		d := New(dec, w, Config{})
		if d.pruned {
			t.Fatalf("%s: pruning is on under signed weights", model.Name)
		}
		seen := []uint{d.tableBits}
		for shot := 0; shot < 200 && d.tableBits < d.maxBits; shot++ {
			syn := randSyndrome(rng, dec.M, 2+shot%9)
			got, _ := d.Decode(syn)
			if want := refHierDecode(dec, w, Config{}, syn, false); !got.Equal(want) {
				t.Fatalf("%s shot %d at %d table bits: decode differs from the reference", model.Name, shot, d.tableBits)
			}
			if last := seen[len(seen)-1]; d.tableBits != last {
				seen = append(seen, d.tableBits)
			}
		}
		if want := []uint{tableStartBits, tableStartBits + 2, tableStartBits + 4, d.maxBits}; !slices.Equal(seen, want) {
			t.Errorf("%s: table bits went %v, want %v", model.Name, seen, want)
		}
	}
}

// FuzzTableGrowth probes a table of random block shapes, start prefix
// and cap with a random sequence of (block, local syndrome) pairs drawn
// from a small pool, so that hits, collisions, evictions and growths all
// occur: every lookup must return the objective a direct GreedyGuess
// reaches.
func FuzzTableGrowth(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(12), uint8(60), uint8(0), uint8(12), uint8(0))
	f.Add(uint64(2), uint8(4), uint8(18), uint8(72), uint8(1), uint8(9), uint8(64))
	f.Add(uint64(3), uint8(9), uint8(9), uint8(9), uint8(2), uint8(5), uint8(255))
	f.Add(uint64(4), uint8(1), uint8(64), uint8(20), uint8(0), uint8(3), uint8(16))
	f.Add(uint64(3), uint8(1), uint8(22), uint8(4), uint8(4), uint8(9), uint8(225))
	f.Add(uint64(88), uint8(9), uint8(37), uint8(4), uint8(0), uint8(5), uint8(255))
	f.Add(uint64(4), uint8(99), uint8(163), uint8(20), uint8(0), uint8(3), uint8(16))
	f.Fuzz(func(t *testing.T, seed uint64, k, md, nB, start, maxBits, neg uint8) {
		rng := rand.New(rand.NewPCG(seed, 0x7a))
		dec := synthDecoupling(rng, 1+int(k)%8, 1+int(md)%64, 1+int(nB)%100, 0, 3)
		w := randWeights(rng, dec.N, float64(neg)/255)
		d := New(dec, w, Config{})
		if d.table == nil {
			t.Fatalf("md %d: no table", dec.MD)
		}
		// Restart the table at a small prefix under a random cap.
		d.maxBits = min(d.maxBits, uint(maxBits)%13)
		d.tableBits = min(uint(start)%5, d.maxBits)
		clear(d.table)
		d.seedZero()
		pool := make([]uint64, 1+rng.IntN(4*dec.K<<d.maxBits))
		for i := range pool {
			if rng.IntN(8) != 0 {
				pool[i] = rng.Uint64() & (1<<uint(dec.MD) - 1)
			}
		}
		want := newBlockSols(d, 1)[0]
		for probe := 0; probe < 2000; probe++ {
			g, key := rng.IntN(dec.K), pool[rng.IntN(len(pool))]
			got := d.blockObj(g, []uint64{key})
			d.greedyGuess(g, []uint64{key}, &want)
			if got != want.obj {
				t.Fatalf("probe %d block %d key %#x at %d of %d bits: table %v, GreedyGuess %v",
					probe, g, key, d.tableBits, d.maxBits, got, want.obj)
			}
		}
		if d.tableBits > d.maxBits || len(d.table) < dec.K<<d.maxBits {
			t.Fatalf("table at %d of %d bits overruns its %d entries", d.tableBits, d.maxBits, len(d.table))
		}
	})
}
