// Command vegacheck enforces the repo's machine-checked invariants with
// a from-scratch stdlib-only static analyzer (see internal/analysis):
// allocation-free //vegapunk:hotpath functions, decode-result scratch
// ownership at pool boundaries, unchecked errors in cmd/ binaries and
// the serving and network layers (internal/serve, internal/faultinject,
// internal/netfault, internal/wire, internal/cluster), and the
// concurrency contracts — goroutine-lifecycle (every go statement bounded or
// annotated //vegapunk:goroutine(<owner>)), lock-blocking (no channel
// op, net I/O or sleep while a mutex is held), ctx-propagate
// (cancellation must flow; no context roots inside the serving
// layers) and atomic-mix (no plain access to sync/atomic variables).
//
//	go run ./cmd/vegacheck ./...
//
// Package patterns filter which diagnostics are reported (the whole
// module is always loaded and analyzed — cross-package rules need it);
// with no pattern, everything is reported. Exits 1 when diagnostics
// survive, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vegapunk/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("vegacheck", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "print the hot-path closure summary")
	dir := fs.String("C", ".", "directory inside the module to analyze")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	res, err := analysis.Run(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vegacheck: %v\n", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		cwd = res.Dir
	}
	filters := patternFilters(*dir, fs.Args())
	n := 0
	for _, d := range res.Diagnostics {
		if !filters.match(d.Pos.Filename) {
			continue
		}
		name := d.Pos.Filename
		if rel, rerr := filepath.Rel(cwd, name); rerr == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", name, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
		n++
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "vegacheck: module %s: %d hotpath functions, %d in closure, %d diagnostics\n",
			res.Module, len(res.HotpathFuncs), res.HotpathReached, n)
		for _, fn := range res.HotpathFuncs {
			fmt.Fprintf(os.Stderr, "  hotpath %s\n", fn)
		}
	}
	if n > 0 {
		return 1
	}
	return 0
}

// filter is one package pattern resolved to an absolute directory;
// recursive patterns ("dir/...") match the whole subtree.
type filter struct {
	dir       string
	recursive bool
}

type filterSet []filter

// patternFilters resolves go-style package patterns against base.
func patternFilters(base string, patterns []string) filterSet {
	var out filterSet
	for _, p := range patterns {
		f := filter{}
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			f.recursive = true
			p = rest
			if p == "" || p == "." {
				p = base
			}
		}
		if p == "" || p == "." {
			p = base
		}
		if !filepath.IsAbs(p) {
			p = filepath.Join(base, p)
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			continue
		}
		f.dir = abs
		out = append(out, f)
	}
	return out
}

// match reports whether file is selected (an empty set selects all).
func (fs filterSet) match(file string) bool {
	if len(fs) == 0 {
		return true
	}
	dir := filepath.Dir(file)
	for _, f := range fs {
		if dir == f.dir {
			return true
		}
		if f.recursive && strings.HasPrefix(dir, f.dir+string(filepath.Separator)) {
			return true
		}
	}
	return false
}
