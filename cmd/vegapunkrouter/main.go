// Command vegapunkrouter is the sharded-serving front end: it accepts
// binary wire-protocol connections (internal/wire) and routes decode
// requests across a set of vegapunkd replicas by rendezvous-hashing
// each model key, so every key pins to one replica and its
// micro-batches stay dense.
//
//	vegapunkrouter -listen :9471 -admin 127.0.0.1:9472 \
//	    -replicas 127.0.0.1:8473,127.0.0.1:8474
//
// Replica health is tracked passively from the response drain flag and
// actively by ping probes every 250 ms; requests that a replica
// fast-fails or loses to a decoder fault are retried once on the
// next-best healthy sibling, with the retry flagged in the response,
// and a lane the sibling cannot settle, or that has no sibling, gets
// the replica's own answer. A replica that fast-fails is routed around
// for 25 ms; one that faults is routed around for 25 ms doubled per
// consecutive faulting batch, up to 1.6 s, until a batch comes back
// without a fault. -hedge-after arms hedged dispatch: a batch without a
// first response inside the window is re-sent to the sibling (at most
// one hedge per ten forwarded batches). These bounds are
// internal/cluster's defaults. No lane is refused for capacity: each
// client connection forwards its own run, so a partitioned replica
// holds only the lanes keyed to it. The admin listener serves /metrics
// (per-replica health, retries, failovers, open connections,
// network-vs-server latency split) and /healthz;
// with -replica-traces (one debug base URL per -replicas entry, in the
// same order) it also serves /debug/clustertrace, a Chrome trace_event
// document merging the router's forwarding spans with each replica's
// stage spans, clock-offset aligned.
//
// SIGINT/SIGTERM drain gracefully: in-flight batches finish, then the
// process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"vegapunk/internal/cluster"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("vegapunkrouter", flag.ExitOnError)
	listen := fs.String("listen", ":9471", "client-facing wire-protocol listen address")
	admin := fs.String("admin", "", "optional admin HTTP listener for /metrics and /healthz (e.g. 127.0.0.1:9472)")
	replicas := fs.String("replicas", "", "comma-separated wire-protocol replica addresses (required)")
	ioTimeout := fs.Duration("io-timeout", 10*time.Second, "backend read/write timeout")
	replicaTraces := fs.String("replica-traces", "", "comma-separated replica debug base URLs, one per -replicas entry (an entry may be empty) for /debug/clustertrace merging")
	traceSample := fs.Uint64("trace-sample", 8, "trace one in every N router-originated requests (1 traces everything)")
	hedgeAfter := fs.Duration("hedge-after", 0, "re-send a slow batch to the sibling after this long without a first response (0 disables hedging)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logger := log.New(os.Stderr, "vegapunkrouter ", log.LstdFlags|log.Lmicroseconds)

	if *traceSample == 0 {
		logger.Printf("-trace-sample 0: must be at least 1")
		return 2
	}
	addrs, traceURLs, err := replicaLists(*replicas, *replicaTraces)
	if err != nil {
		logger.Printf("%v", err)
		return 2
	}
	rt, err := cluster.New(cluster.Config{
		Replicas:         addrs,
		IOTimeout:        *ioTimeout,
		TraceURLs:        traceURLs,
		TraceSampleEvery: *traceSample,
		HedgeAfter:       *hedgeAfter,
	})
	if err != nil {
		logger.Printf("%v", err)
		return 2
	}
	logger.Printf("routing across %d replicas: %s", len(addrs), strings.Join(addrs, ", "))

	if *admin != "" {
		adm := &http.Server{Addr: *admin, Handler: rt.Handler()}
		// Lives for the process; the OS reaps it when main exits.
		go func() {
			if err := adm.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Printf("admin listener: %v", err)
			}
		}()
		logger.Printf("admin endpoints (metrics, healthz) on %s", *admin)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- rt.ListenAndServe(*listen) }()
	logger.Printf("listening on %s", *listen)

	select {
	case err := <-errCh:
		if err != nil {
			logger.Printf("serve: %v", err)
			return 1
		}
		return 0
	case <-ctx.Done():
	}
	logger.Printf("signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(shutCtx); err != nil {
		logger.Printf("shutdown: %v", err)
		return 1
	}
	if err := <-errCh; err != nil {
		logger.Printf("serve: %v", err)
		return 1
	}
	logger.Printf("drained, bye")
	return 0
}

// replicaLists splits -replicas and -replica-traces by position, so
// trace URL i belongs to replica i. An empty replica entry (no
// -replicas at all included) and a trace list of another length are
// errors, not silently shifted entries.
func replicaLists(replicas, traces string) (addrs, traceURLs []string, err error) {
	addrs = splitList(replicas)
	if slices.Contains(addrs, "") {
		return nil, nil, fmt.Errorf("-replicas %q: every entry must be an address", replicas)
	}
	if traces == "" {
		return addrs, nil, nil
	}
	if traceURLs = splitList(traces); len(traceURLs) != len(addrs) {
		return nil, nil, fmt.Errorf("-replica-traces has %d entries, -replicas %d", len(traceURLs), len(addrs))
	}
	return addrs, traceURLs, nil
}

// splitList splits a comma-separated flag value, trimming each entry
// and keeping empty ones in place.
func splitList(s string) []string {
	out := strings.Split(s, ",")
	for i := range out {
		out[i] = strings.TrimSpace(out[i])
	}
	return out
}
