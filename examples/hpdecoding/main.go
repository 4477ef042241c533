// hpdecoding demonstrates the analytic decoupling structure of
// hypergraph product codes (paper §4.2): the I_t ⊗ H2ᵀ half of the
// check matrix is already block diagonal, so with the measurement-error
// identity columns the offline stage recovers the paper's exact Table 2
// shapes — then decodes a phenomenological memory with it.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"vegapunk"
)

func main() {
	// HP of two ring codes of length 9: the toric-like [[162,2,4]].
	c, err := vegapunk.HPCode(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("code: %s — HP(ring(9), ring(9))\n", c.Params())

	// Phenomenological noise: data errors + measurement errors, check
	// matrix [H | I] of shape [81, 243] as in the paper's Table 2.
	model := vegapunk.PhenomenologicalNoise(c, 0.002, 0.002)
	fmt.Printf("per-round check matrix: [%d, %d]\n", model.NumDet, model.NumMech())

	// Offline decoupling with the paper's HP rule K = t = 9.
	art, err := vegapunk.Decouple(model.CheckMatrix(), vegapunk.DecoupleOptions{HintKs: []int{9}})
	if err != nil {
		log.Fatal(err)
	}
	aS, bS := art.Sparsity()
	fmt.Printf("decoupled: K=%d blocks D_i [%d,%d] (sparsity %d), A [%d,%d] (sparsity %d)\n",
		art.K, art.MD, art.ND, bS, art.M, art.NA, aS)
	fmt.Println("paper Table 2 row:        K=9 blocks D_i [9,18] (2),      A [81,81] (2)")

	// Persist and reload the artifact — the deployment flow.
	f, err := os.CreateTemp("", "hp162-*.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := vegapunk.SaveDecoupling(art, f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	rf, err := os.Open(f.Name())
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := vegapunk.LoadDecoupling(rf)
	if err != nil {
		log.Fatal(err)
	}
	if err := rf.Close(); err != nil {
		log.Fatal(err)
	}
	if err := os.Remove(f.Name()); err != nil {
		log.Fatal(err)
	}
	if err := loaded.Validate(model.CheckMatrix()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("artifact round-tripped through %s and re-validated bit-exactly\n\n", f.Name())

	// Decode a short memory experiment.
	dec := vegapunk.NewVegapunkWith(model, loaded, vegapunk.VegapunkOptions{})
	rng := rand.New(rand.NewPCG(1, 2))
	fails := 0
	const shots, rounds = 200, 4
	for s := 0; s < shots; s++ {
		var actual, predicted vegapunk.Vec
		for r := 0; r < rounds; r++ {
			e := model.Sample(rng)
			est, _ := dec.Decode(model.Syndrome(e))
			a, p := model.Observables(e), model.Observables(est)
			if r == 0 {
				actual, predicted = a, p
			} else {
				actual.Xor(a)
				predicted.Xor(p)
			}
		}
		if !actual.Equal(predicted) {
			fails++
		}
	}
	fmt.Printf("memory: %d rounds x %d shots at p=0.2%% -> %d logical failures (LER %.3f)\n",
		rounds, shots, fails, float64(fails)/shots)
}
