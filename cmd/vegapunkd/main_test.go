package main

import (
	"strings"
	"testing"

	"vegapunk/internal/exp"
)

// TestBuildFactoryRejectsUnservedDecoders: bpgd left the served families
// (its decodes outlast the hang watchdog), so -decoders bpgd fails like
// any unknown name, and the error lists the four that remain.
func TestBuildFactoryRejectsUnservedDecoders(t *testing.T) {
	for _, name := range []string{"bpgd", "BPGD", "nope"} {
		f, err := buildFactory(nil, exp.Benchmark{}, nil, name, 30)
		if err == nil || f != nil {
			t.Fatalf("-decoders %s: accepted", name)
		}
		if want := "(want vegapunk, bp, bp+osd or bp+lsd)"; !strings.Contains(err.Error(), want) {
			t.Errorf("-decoders %s: error %q does not list the served decoders %s", name, err, want)
		}
	}
	for _, name := range []string{"bp", "bp+osd", "bp+lsd"} {
		if f, err := buildFactory(nil, exp.Benchmark{}, nil, name, 30); err != nil || f == nil {
			t.Errorf("-decoders %s: %v", name, err)
		}
	}
}
