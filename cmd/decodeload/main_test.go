package main

import "testing"

// TestRunRejectsCountsBelowOne: a -requests, -batch or -concurrency
// below 1 exits 2 before any model is built or any connection dialed,
// the way an unknown -code and a -p outside (0, 1) do. Unchecked,
// -batch -1 and -requests -1 panicked in makeslice, -batch 0 counted
// empty requests as ok, -concurrency 0 sent nothing and blamed the
// daemon, and -p 0 or NaN dialed with a model whose LLRs are ±Inf or
// NaN.
func TestRunRejectsCountsBelowOne(t *testing.T) {
	for _, args := range [][]string{
		{"-requests", "0"},
		{"-requests", "-1"},
		{"-batch", "0"},
		{"-batch", "-1"},
		{"-concurrency", "0"},
		{"-concurrency", "-1"},
		{"-code", "no such code"},
		{"-p", "0"},
		{"-p", "1"},
		{"-p", "-0.1"},
		{"-p", "NaN"},
	} {
		if got := run(args); got != 2 {
			t.Errorf("decodeload %q: exit %d, want 2", args, got)
		}
	}
}
