package hier

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// goldenShots syndromes per model go into each digest.
const goldenShots = 2048

// hierGolden pins the decoder's answers: a SHA-256 over the correction
// words and the whole Trace of goldenShots seeded syndromes per model.
// The digests were recorded on the commit before the touched-block walk
// was unified (ISSUE 16). A change that is meant to alter an answer or a
// trace count regenerates them and says so.
var hierGolden = []struct {
	name  string
	model func() (*dem.Model, error)
	opts  decouple.Options
	want  string
}{
	{"BB72-circuit-p0.003", bbCircuit(0, 0.003), decouple.Options{Seed: 7},
		"a83326c2ac1521496683e539b0defd5b8f0a3f67540d6ecef479d55122b6c4a8"},
	{"BB144-circuit-p0.003", bbCircuit(3, 0.003), decouple.Options{Seed: 7},
		"1679c8daebff50e004b2505085bcb5f6a9f3ad3b525b2d32d5a707085a015c38"},
	{"HP162-phenomenological-p0.003", func() (*dem.Model, error) {
		c, err := code.NewHPByIndex(0)
		if err != nil {
			return nil, err
		}
		return dem.Phenomenological(c, 0.003, 0.003), nil
	}, decouple.Options{HintKs: []int{9}},
		"7875067bd026988578ab0c26897361c5810346e35dd38c4c5019b7f6efad7f45"},
}

func bbCircuit(index int, p float64) func() (*dem.Model, error) {
	return func() (*dem.Model, error) {
		c, err := code.NewBBByIndex(index)
		if err != nil {
			return nil, err
		}
		return dem.CircuitLevel(c, p), nil
	}
}

// hashDecode folds one decode's answer into h: every word of the
// correction, then every field of the trace.
func hashDecode(h hash.Hash, e gf2.Vec, tr Trace) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for i := 0; i < (e.Len()+63)/64; i++ {
		put(e.Word(i))
	}
	put(uint64(tr.OuterIters))
	put(uint64(tr.Candidates))
	put(uint64(tr.BlockDecodes))
	put(uint64(tr.MaxInnerIters))
	put(math.Float64bits(tr.Weight))
}

func TestHierGoldenDigests(t *testing.T) {
	for _, g := range hierGolden {
		t.Run(g.name, func(t *testing.T) {
			model, err := g.model()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := decouple.Decouple(model.CheckMatrix(), g.opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(16, 2048))
			syns := make([]gf2.Vec, goldenShots)
			for i := range syns {
				syns[i] = model.Syndrome(model.Sample(rng))
			}
			d := New(dec, model.LLRs(), Config{})

			h := sha256.New()
			for _, s := range syns {
				e, tr := d.Decode(s)
				hashDecode(h, e, tr)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != g.want {
				t.Errorf("digest %s, want %s", got, g.want)
			}
		})
	}
}
