package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// TestBaselineCorrectionsPinned pins the two paper-only baselines of
// Figures 12 and 14: BPGD at the Quick budget (30 rounds of 30 BP
// iterations) and Vegapunk's greedy search without decoupling (3 flips).
// Both decode one seeded pool of 256 BB72 circuit-level syndromes. The
// SHA-256 of their corrections, the count of nonzero ones and the summed
// BP iterations must equal the values recorded when they were still
// core.NewBPGD and core.NewGreedyNoDecouple.
func TestBaselineCorrectionsPinned(t *testing.T) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CircuitLevel(c, 0.005)
	rounds, iters := Config{Quality: Quick}.bpgdBudget(model.NumMech())
	if rounds != 30 || iters != 30 {
		t.Fatalf("Quick BPGD budget %d×%d, want 30×30", rounds, iters)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	pool := make([]gf2.Vec, 256)
	for i := range pool {
		pool[i] = model.Syndrome(model.Sample(rng))
	}
	for _, tc := range []struct {
		d              core.Decoder
		nonzero, iters int
		sha256         string
	}{
		{newBPGD(model, rounds, iters), 19, 43408, "311ce4a704f832347f271f7b91ecf42700798c6daeedfb308e84a699f51f3f7e"},
		{newGreedyNoDecouple(model), 67, 0, "02c70fb5971969f7ebbc08fcf570d065f2d0194d63bf709110f6ae23703fee77"},
	} {
		h := sha256.New()
		var buf [4]byte
		nonzero, iters := 0, 0
		for _, s := range pool {
			e, st := tc.d.Decode(s)
			iters += st.BPIters
			if !e.IsZero() {
				nonzero++
			}
			for _, j := range e.Ones() {
				binary.LittleEndian.PutUint32(buf[:], uint32(j))
				h.Write(buf[:])
			}
			h.Write([]byte{0xff, 0xff, 0xff, 0xff})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha256 || nonzero != tc.nonzero || iters != tc.iters {
			t.Errorf("%s: %d nonzero corrections, %d BP iterations, sha256 %s; want %d, %d, %s",
				tc.d.Name(), nonzero, iters, got, tc.nonzero, tc.iters, tc.sha256)
		}
	}
}
