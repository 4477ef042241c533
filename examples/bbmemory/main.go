// bbmemory runs the paper's headline accuracy experiment on one BB
// code: a multi-round quantum memory under circuit-level noise, decoded
// by BP, BP+OSD-CS(7) and Vegapunk, reporting per-round logical error
// rates (the Figure 10 comparison for a single code, scaled to laptop
// budgets).
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"

	"vegapunk"
)

func main() {
	var (
		codeIdx = flag.Int("code", 0, "BB code index 0..5 ([[72,12,6]] .. [[784,24,24]])")
		shots   = flag.Int("shots", 400, "memory experiments per point")
		rounds  = flag.Int("rounds", 6, "syndrome-extraction rounds per experiment")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
	)
	flag.Parse()

	c, err := vegapunk.BBCode(*codeIdx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quantum memory on %s, %d rounds per shot\n\n", c.Params(), *rounds)
	fmt.Printf("%10s %22s %22s %22s\n", "p", "BP", "BP+OSD-CS(7)", "Vegapunk")

	for _, p := range []float64{5e-4, 1e-3, 2e-3, 5e-3} {
		model := vegapunk.CircuitLevelNoise(c, p)

		// Offline stage once per model (structure is p-independent, but
		// the LLR weights are not — rebuild the online decoder per p).
		art, err := vegapunk.Decouple(model.CheckMatrix(), vegapunk.DecoupleOptions{})
		if err != nil {
			log.Fatal(err)
		}

		cfg := vegapunk.MemoryConfig{
			Rounds: *rounds, Shots: *shots, Workers: *workers, Seed: 7,
		}
		row := fmt.Sprintf("%10.1e", p)
		for _, mk := range []func() vegapunk.Decoder{
			func() vegapunk.Decoder { return vegapunk.NewMinSumBP(model, 150) },
			func() vegapunk.Decoder { return vegapunk.NewBPOSD(model, 150, 7) },
			func() vegapunk.Decoder {
				return vegapunk.NewVegapunkWith(model, art, vegapunk.VegapunkOptions{})
			},
		} {
			res := vegapunk.RunMemory(model, mk, cfg)
			row += fmt.Sprintf("   %10.2e (%d/%d)", res.PerRound, res.Failures, res.Shots)
		}
		fmt.Println(row)
	}
	fmt.Println("\nexpected shape (paper Fig. 10): BP well above the other two;")
	fmt.Println("Vegapunk tracking BP+OSD-CS(7) within small factors.")
}
