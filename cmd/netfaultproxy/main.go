// Command netfaultproxy exposes the link layer of internal/fault as a
// standalone TCP fault proxy: it listens on a local port, forwards
// every connection to -target, and injects a deterministic, seeded
// schedule of network faults — single-byte corruption, torn writes,
// mid-stream RSTs and latency spikes at drawn byte offsets, and
// scripted link phases such as partitions. The CI network-chaos smoke
// puts it between the router and a replica; it is equally usable by
// hand to watch any wire-protocol peer survive a bad network.
//
//	netfaultproxy -target 127.0.0.1:8473 -seed 7 \
//	    -fault-every 4096 -mix corrupt:3,tear:1,crash:1 \
//	    -script pass:2s,blackhole:1s,corrupt:2s,slow:2s
//
// The proxy prints its listen address on stdout (the OS picks the
// port), logs a fault-counter summary ending in phase_flips= on exit,
// and terminates on SIGINT/SIGTERM or after -run-for elapses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vegapunk/internal/fault"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("netfaultproxy", flag.ContinueOnError)
	target := fs.String("target", "", "address to forward proxied connections to (required)")
	seed := fs.Uint64("seed", 1, "seed for the per-connection fault schedule PCG streams")
	faultEvery := fs.Int("fault-every", 0, "mean forwarded-byte gap between offset faults per direction (0 disables)")
	mixFlag := fs.String("mix", "", "kind weights at fault offsets, e.g. corrupt:3,tear:1 (kinds: corrupt, tear, crash, slow)")
	script := fs.String("script", "", "wall-clock phase schedule, e.g. pass:2s,blackhole:1s,corrupt:2s,slow:2s (kinds: pass, slow, corrupt, blackhole)")
	runFor := fs.Duration("run-for", 0, "exit after this long (0 = run until signalled)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := log.New(os.Stderr, "netfaultproxy ", log.LstdFlags|log.Lmicroseconds)
	if *target == "" {
		logger.Printf("-target is required")
		return 2
	}
	mix := map[fault.Kind]float64{}
	if err := parseList(*mixFlag, []fault.Kind{fault.Corrupt, fault.Tear, fault.Crash, fault.Slow}, func(k fault.Kind, v string) error {
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || !(w >= 0) || math.IsInf(w, 1) {
			return errors.New("want a finite weight >= 0")
		}
		mix[k] = w
		return nil
	}); err != nil {
		logger.Printf("-mix %v", err)
		return 2
	}
	var phases []fault.Phase
	if err := parseList(*script, []fault.Kind{fault.Pass, fault.Slow, fault.Corrupt, fault.Blackhole}, func(k fault.Kind, v string) error {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return errors.New("want a duration >= 0")
		}
		phases = append(phases, fault.Phase{Kind: k, For: d})
		return nil
	}); err != nil {
		logger.Printf("-script %v", err)
		return 2
	}
	p, err := fault.Start(*target, fault.Plan{Seed: *seed, Mix: mix, FaultEvery: *faultEvery, Phases: phases})
	if err != nil {
		logger.Printf("start: %v", err)
		return 1
	}
	// The listen address goes to stdout so scripts can capture it.
	fmt.Println(p.Addr())
	logger.Printf("proxying %s -> %s (seed %d)", p.Addr(), *target, *seed)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *runFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runFor)
		defer cancel()
	}
	<-ctx.Done()

	_ = p.Close() // best-effort: exiting anyway
	logger.Printf("done: %s phase_flips=%d", &p.Counters, p.Phases.Load())
	return 0
}

// parseList walks a "kind:value,kind:value" list, admitting only the
// kinds in allowed and handing each value to set.
func parseList(s string, allowed []fault.Kind, set func(fault.Kind, string) error) error {
	if s == "" {
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		name, v, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("%q: want kind:value", part)
		}
		k, ok := fault.ParseKind(name)
		if !ok || !slices.Contains(allowed, k) {
			return fmt.Errorf("%q: kind not one of %v", part, allowed)
		}
		if err := set(k, v); err != nil {
			return fmt.Errorf("%q: %w", part, err)
		}
	}
	return nil
}
