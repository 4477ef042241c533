// Command vegapunk is the CLI front end of the decoder library:
//
//	vegapunk codes                          # list benchmark codes
//	vegapunk decouple -code "BB [[72,12,6]]" -out art.json
//	vegapunk dump -code "HP [[338,2,4]]"    # Table-3 style density plot
//	vegapunk decode -code "BB [[72,12,6]]" -p 0.002 -shots 5
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"

	"vegapunk/internal/core"
	"vegapunk/internal/exp"
	"vegapunk/internal/hier"
)

func run() int {
	if len(os.Args) < 2 {
		usage()
		return 2
	}
	switch os.Args[1] {
	case "codes":
		return cmdCodes()
	case "decouple":
		return cmdDecouple(os.Args[2:])
	case "dump":
		return cmdDump(os.Args[2:])
	case "decode":
		return cmdDecode(os.Args[2:])
	default:
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  vegapunk codes
  vegapunk decouple -code <name> [-out file.json]
  vegapunk dump     -code <name>
  vegapunk decode   -code <name> [-p 0.002] [-shots 5] [-seed 1]`)
}

func cmdCodes() int {
	ws := exp.NewWorkspace()
	fmt.Printf("%-18s %-6s %6s %4s %4s %10s\n", "name", "family", "n", "k", "d", "noise")
	for _, b := range exp.Benchmarks() {
		c, err := ws.Code(b)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		noise := "circuit"
		if b.Family == "HP" {
			noise = "phenom."
		}
		fmt.Printf("%-18s %-6s %6d %4d %4d %10s\n", b.Name, b.Family, c.N, c.K, c.D, noise)
	}
	return 0
}

func cmdDecouple(args []string) int {
	fs := flag.NewFlagSet("decouple", flag.ExitOnError)
	name := fs.String("code", "", "benchmark code name (see 'vegapunk codes')")
	out := fs.String("out", "", "write the offline artifact to this file (JSON)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b, ok := exp.BenchmarkByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown code %q\n", *name)
		return 2
	}
	ws := exp.NewWorkspace()
	dcp, err := ws.Decoupling(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	aS, bS := dcp.Sparsity()
	fmt.Printf("%s: D [%d,%d] -> K=%d blocks D_i [%d,%d] (spars %d), A [%d,%d] (spars %d), nnz=%d\n",
		b.Name, dcp.M, dcp.N, dcp.K, dcp.MD, dcp.ND, bS, dcp.M, dcp.NA, aS, dcp.NNZ())
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, cerr)
			}
		}()
		if _, err := dcp.WriteTo(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("artifact written to %s\n", *out)
	}
	return 0
}

func cmdDump(args []string) int {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	name := fs.String("code", "", "benchmark code name")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b, ok := exp.BenchmarkByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown code %q\n", *name)
		return 2
	}
	ws := exp.NewWorkspace()
	cfg := exp.Config{Out: os.Stdout, Quality: exp.Quick, Workers: 1, Seed: 1}
	if err := exp.DumpDecoupling(cfg, ws, b); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func cmdDecode(args []string) int {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	name := fs.String("code", "", "benchmark code name")
	p := fs.Float64("p", 0.002, "physical error rate")
	shots := fs.Int("shots", 5, "number of sampled syndromes")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := exp.CheckP(*p); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, ok := exp.BenchmarkByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown code %q\n", *name)
		return 2
	}
	ws := exp.NewWorkspace()
	model, err := ws.Model(b, *p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	dcp, err := ws.Decoupling(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	dec := core.NewVegapunkFrom(model, dcp, hier.Config{})
	rng := rand.New(rand.NewPCG(*seed, 7))
	H := model.CheckMatrix()
	for i := 0; i < *shots; i++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		est, stats := dec.Decode(s)
		ok := "SYNDROME-OK"
		if !H.MulVec(est).Equal(s) {
			ok = "SYNDROME-VIOLATED"
		}
		logical := "logical-ok"
		if !model.Observables(est).Equal(model.Observables(e)) {
			logical = "LOGICAL-ERROR"
		}
		fmt.Printf("shot %d: |e|=%d |ê|=%d outer=%d candidates=%d  %s %s\n",
			i, e.Weight(), est.Weight(), stats.Hier.OuterIters, stats.Hier.Candidates, ok, logical)
	}
	return 0
}

func main() { os.Exit(run()) }
