package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"vegapunk/internal/sim"
)

// absoluteFloor is how far a near-zero end-to-end metric may move
// before its relative bound is consulted at all: a tenth of a 20 ms
// set-up is scheduler noise, not a regression.
var absoluteFloor = map[string]float64{"setup_s": 0.05}

// gateSlack gives how far a gate metric may worsen in the change, from
// what it read in the parent; n is the number of trials behind a rate.
// These are ISSUE 11's bounds. timingGates are the ones a traced
// artifact, with its two shorter untraced rounds, is not compared on.
var gateSlack = map[string]func(parent float64, n int) float64{
	"throughput_syn_per_s": tenth,
	"sat_latency_p50_us":   tenth,
	"sat_latency_p99_us":   tenth,
	"paced_latency_p50_us": tenth,
	"paced_latency_p99_us": tenth,
	"cpu_us_per_syn":       tenth,
	"paced_miss_share":     func(float64, int) float64 { return 0.01 },
	"allocs_per_syn":       func(p float64, _ int) float64 { return math.Max(0.10*p, 0.05) },
	// The change may not read above what a second sample of the parent
	// could plausibly read.
	"logical_error_rate": func(p float64, n int) float64 {
		_, hi := sim.Wilson(int(math.Round(p*float64(n))), n)
		return hi - p
	},
	"unsatisfied_share": func(float64, int) float64 { return 0 },
	"failed_share":      func(float64, int) float64 { return 0 },
}

func tenth(parent float64, _ int) float64 { return 0.10 * parent }

var timingGates = map[string]bool{
	"throughput_syn_per_s": true, "sat_latency_p50_us": true, "sat_latency_p99_us": true,
	"paced_latency_p50_us": true, "paced_latency_p99_us": true, "cpu_us_per_syn": true,
}

func readArtifact(path string) (*artifact, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(a.Results) == 0 {
		return nil, fmt.Errorf("%s holds no results", path)
	}
	return &a, nil
}

func byName(list []measured) map[string]measured {
	out := make(map[string]measured, len(list))
	for _, m := range list {
		out[m.Name] = m
	}
	return out
}

// runCompare applies BENCHMARK.json's bounds to two artifacts of the
// same benchmark, parent first, and returns 1 if the change is worse
// than the parent by more than a metric allows.
func runCompare(benchPath, parentPath, changePath string, stdout, stderr io.Writer) int {
	var parent, change *artifact
	bf, err := readBenchFile(benchPath)
	if err == nil {
		parent, err = readArtifact(parentPath)
	}
	if err == nil {
		change, err = readArtifact(changePath)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: compare: %v\n", err)
		return 2
	}
	if violations := compareArtifacts(bf, parent, change, stdout); violations > 0 {
		fmt.Fprintf(stdout, "FAIL: %d metrics outside their bounds\n", violations)
		return 1
	}
	fmt.Fprintln(stdout, "ok: every compared metric within its bound")
	return 0
}

func compareArtifacts(bf *benchFile, parent, change *artifact, w io.Writer) (violations int) {
	sameSeed := parent.Seed == change.Seed
	fmt.Fprintf(w, "parent: seed %d, nproc %d, %s, calibration %.0f ns\nchange: seed %d, nproc %d, %s, calibration %.0f ns\n",
		parent.Seed, parent.NProc, parent.GoVersion, parent.CalibrationNs,
		change.Seed, change.NProc, change.GoVersion, change.CalibrationNs)
	if !sameSeed {
		fmt.Fprintln(w, "seeds differ: exact counts and pool hashes are not compared")
	}
	// report prints one comparison and counts it when bad.
	report := func(label string, p, c float64, need string, bad bool) {
		verdict := "ok"
		if bad {
			verdict = "WORSE"
			violations++
		}
		rel := ""
		if p != 0 {
			rel = fmt.Sprintf("%+.2f%%", 100*(c-p)/p)
		}
		fmt.Fprintf(w, "  %-34s %14.6g -> %-14.6g %9s  need %-16s %s\n", label, p, c, rel, need, verdict)
	}
	// within holds the change to the parent's value plus slack, in the
	// metric's worse direction.
	within := func(d metricDef, p, c, slack float64) {
		if d.Better == "higher" {
			report(d.Name, p, c, fmt.Sprintf(">= %.6g", p-slack), c < p-slack)
		} else {
			report(d.Name, p, c, fmt.Sprintf("<= %.6g", p+slack), c > p+slack)
		}
	}
	compared := 0
	for _, pr := range parent.Results {
		var cr *result
		for _, r := range change.Results {
			if r.Workload == pr.Workload {
				cr = r
			}
		}
		if cr == nil {
			continue
		}
		compared++
		fmt.Fprintf(w, "\n== %s\n", pr.Workload)
		if !pr.Correct || !cr.Correct {
			fmt.Fprintf(w, "  a run failed its correctness gate (parent correct=%v, change correct=%v)\n", pr.Correct, cr.Correct)
			violations++
		}
		if sameSeed && pr.PoolHash != cr.PoolHash {
			fmt.Fprintf(w, "  pool hash %s -> %s: same seed, different inputs\n", pr.PoolHash, cr.PoolHash)
			violations++
		}
		traced := parent.Trace || change.Trace
		if traced {
			fmt.Fprintln(w, "  a traced run has two untraced rounds, not five, and one set-up's worth of ledger: its timings are not compared")
		}
		pe, ce := byName(pr.EndToEnd), byName(cr.EndToEnd)
		for _, d := range bf.EndToEnd {
			if traced && d.Name == "setup_s" {
				continue
			}
			p, c := pe[d.Name].Value, ce[d.Name].Value
			within(d, p, c, math.Max(d.Bound*math.Abs(p), absoluteFloor[d.Name]))
		}
		pg, cg := byName(pr.Gates), byName(cr.Gates)
		for _, d := range gateDefs {
			if traced && timingGates[d.Name] {
				continue
			}
			p, c := pg[d.Name], cg[d.Name]
			within(d, p.Value, c.Value, gateSlack[d.Name](p.Value, p.Samples))
		}
		if !sameSeed || len(pr.PerLayer) == 0 || len(cr.PerLayer) == 0 {
			continue
		}
		pl, cl := byName(pr.PerLayer), byName(cr.PerLayer)
		for _, d := range layerDefs {
			if exactCounts[d.Name] {
				p, c := pl[d.Name].Value, cl[d.Name].Value
				report(d.Name+" (exact)", p, c, "equality", p != c)
			}
		}
	}
	if compared == 0 {
		fmt.Fprintln(w, "the two files share no workload")
		violations++
	}
	return violations
}
