// Command allocgate turns the repo's "0 allocs/op" benchmark contracts
// into a hard gate: it runs the pinned decode/serve benchmarks with
// -benchmem and fails if any reports more than the allowed allocations
// per operation. This replaces the assert-by-comment convention in
// internal/README.md with something CI can enforce.
//
//	go run ./cmd/allocgate                  # pinned benchmark set
//	go run ./cmd/allocgate -bench 'BenchmarkBPDecode$' ./internal/bp
//
// Exits 1 when a benchmark exceeds the budget, 2 when `go test` itself
// fails or a pinned benchmark did not run (a renamed benchmark must not
// silently disable the gate).
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// The pinned contracts: every benchmark matched by bench in pkgs must
// report at most maxAllocs allocs/op.
var defaultPins = []struct {
	bench string
	pkgs  []string
}{
	{"BenchmarkBPDecode$", []string{"./internal/bp"}},
	{"BenchmarkBPDecodeRelay$", []string{"./internal/bp"}},
	{"BenchmarkHierDecode$", []string{"./internal/hier"}},
	{"BenchmarkOSDDecode$", []string{"./internal/osd"}},
	{"BenchmarkServiceDecode$", []string{"./internal/serve"}},
	{"BenchmarkServiceDecodeBatch64$", []string{"./internal/serve"}},
	{"BenchmarkServiceDecodeBatch64Serial$", []string{"./internal/serve"}},
	{"BenchmarkServeWireDecode$", []string{"./internal/serve"}},
	{"BenchmarkWireAppendDecode$", []string{"./internal/wire"}},
	{"BenchmarkWireAppendDecodeTraced$", []string{"./internal/wire"}},
	{"BenchmarkWireParseResult$", []string{"./internal/wire"}},
	{"BenchmarkWireParseResultTimed$", []string{"./internal/wire"}},
	{"BenchmarkRouterPick$", []string{"./internal/cluster"}},
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+.*?\s(\d+(?:\.\d+)?) allocs/op`)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("allocgate", flag.ContinueOnError)
	bench := fs.String("bench", "", "benchmark regexp (default: the pinned contract set)")
	benchtime := fs.String("benchtime", "100x", "go test -benchtime value")
	maxAllocs := fs.Float64("max", 0, "maximum allowed allocs/op")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	type job struct {
		bench string
		pkgs  []string
	}
	var jobs []job
	if *bench != "" {
		pkgs := fs.Args()
		if len(pkgs) == 0 {
			pkgs = []string{"./..."}
		}
		jobs = append(jobs, job{*bench, pkgs})
	} else {
		for _, p := range defaultPins {
			jobs = append(jobs, job{p.bench, p.pkgs})
		}
	}

	bad := 0
	for _, j := range jobs {
		cmdArgs := append([]string{"test", "-run", "^$", "-bench", j.bench,
			"-benchtime", *benchtime, "-benchmem"}, j.pkgs...)
		cmd := exec.Command("go", cmdArgs...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "allocgate: go %s: %v\n%s", strings.Join(cmdArgs, " "), err, out.String())
			return 2
		}
		ran := 0
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
			if m == nil {
				continue
			}
			ran++
			allocs, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			if allocs > *maxAllocs {
				fmt.Printf("allocgate: FAIL %s: %g allocs/op (budget %g)\n", m[1], allocs, *maxAllocs)
				bad++
			} else {
				fmt.Printf("allocgate: ok   %s: %g allocs/op\n", m[1], allocs)
			}
		}
		if ran == 0 {
			fmt.Fprintf(os.Stderr, "allocgate: no benchmark matched %q in %s — gate would be vacuous\n",
				j.bench, strings.Join(j.pkgs, " "))
			return 2
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
