// Command benchmark is the repo's measuring instrument: four decode
// workloads (direct, batched serve, wire, routed), one unit (syndromes
// per second) and a per-layer ledger. It builds each workload through
// the layers' public functions only, times them from outside, verifies
// every answer and prints every metric by name with its unit. See
// README.md in this directory and BENCHMARK.json at the repo root.
//
//	go run ./benchmark --workload direct-vegapunk-bb144 --seed 1 --seconds 25 --trace 0
//	go run ./benchmark --workload all --trace 1 --out run.json
//	go run ./benchmark --compare parent.json change.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// artifact is a result file: what -out writes and -compare reads.
type artifact struct {
	Seed          uint64    `json:"seed"`
	Seconds       float64   `json:"seconds"`
	Trace         bool      `json:"trace"`
	NProc         int       `json:"nproc"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	GoVersion     string    `json:"go_version"`
	CalibrationNs float64   `json:"calibration_ns"`
	Results       []*result `json:"results"`
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "seed of the input pool")
	seconds := fs.Float64("seconds", 25, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	out := fs.String("out", "", "also write the full result, with per-round values, to this file")
	traceDir := fs.String("trace-dir", ".bench_out", "directory for the Chrome trace of a traced run")
	compare := fs.Bool("compare", false, "compare two result files, parent then change, against the bounds in ./BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return runCompare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var todo []*spec
	if *workload == "all" {
		for i := range specs {
			todo = append(todo, &specs[i])
		}
	} else if sp, ok := findSpec(*workload); ok {
		todo = append(todo, sp)
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}

	// The load is sized to the machine: GOMAXPROCS = nproc, and
	// clientsFor derives the client count from the same number.
	runtime.GOMAXPROCS(runtime.NumCPU())
	art := artifact{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CalibrationNs: calibrate(),
	}
	fmt.Fprintf(stdout, "benchmark: seed %d, %g s per workload, trace %d, nproc %d, GOMAXPROCS %d, %s, calibration %.0f ns\n",
		art.Seed, art.Seconds, *trace, art.NProc, art.GOMAXPROCS, art.GoVersion, art.CalibrationNs)

	code := 0
	for _, sp := range todo {
		opt := measureOptions(*seed, *seconds, *trace == 1)
		if opt.trace {
			opt.traceFile = filepath.Join(*traceDir, "trace-"+sp.name+".json")
		}
		res, err := runWorkload(ctx, sp, opt)
		if err != nil {
			// No result line: the run did not measure what it claims to.
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.name, err)
			return 1
		}
		art.Results = append(art.Results, res)
		printResult(stdout, sp, res, opt)
		if !res.Correct {
			code = 1
		}
	}
	if *out != "" {
		if err := writeArtifact(*out, &art); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	// The contract's last line: one object per workload run, so the last
	// line of a single-workload run is that workload's.
	for _, res := range art.Results {
		fmt.Fprintln(stdout, resultLine(res, art.Trace))
	}
	return code
}

func writeArtifact(path string, art *artifact) error {
	raw, err := json.MarshalIndent(art, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// resultLine is the machine-read line: exactly correct, attempted,
// failed and metrics, the metrics being the end-to-end ones of an
// untraced run or the per-layer ones of a traced run.
func resultLine(res *result, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := res.EndToEnd
	if traced {
		list = append(append([]measured(nil), res.Gates...), res.PerLayer...)
	}
	metrics := make(map[string]mv, len(list))
	for _, m := range list {
		metrics[m.Name] = mv{m.Value, m.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		// Only a NaN or Inf value can do this; it must not pass as a result.
		panic(fmt.Sprintf("benchmark: %s: result does not encode: %v", res.Workload, err))
	}
	return string(raw)
}

func printResult(w io.Writer, sp *spec, res *result, opt options) {
	fmt.Fprintf(w, "\n== %s  (pool %s, %d clients, %d syn/request, paced %.0f syn/s, limit %.0f us)\n",
		sp.name, res.PoolHash, clientsFor(sp), sp.lanes, sp.pacedRate, sp.limitUs)
	fmt.Fprintf(w, "   %s\n", sp.why)
	table := func(title string, list []measured) {
		fmt.Fprintf(w, "-- %s\n", title)
		for _, m := range list {
			line := fmt.Sprintf("%-34s %16.6g %-6s", m.Name, m.Value, m.Unit)
			if m.Samples > 0 {
				line += fmt.Sprintf(" n=%d", m.Samples)
			}
			if len(m.Rounds) > 0 {
				line += fmt.Sprintf("  rounds %.5g", m.Rounds)
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
	}
	table("end to end, bounded by the driver", res.EndToEnd)
	table("end to end, gates (tracing off; median of the rounds listed, n = requests in the smallest round; held by the harness and --compare)", res.Gates)
	if opt.trace {
		table("per layer (traced run; 0 = layer bypassed)", res.PerLayer)
		fmt.Fprintln(w, "-- budget")
		for _, b := range res.Budget {
			fmt.Fprintln(w, b)
		}
		fmt.Fprintf(w, "trace written to %s\n", opt.traceFile)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", sp.name, res.Correct, res.Attempted, res.Failed)
}
