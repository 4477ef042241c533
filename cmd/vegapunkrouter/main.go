// Command vegapunkrouter is the sharded-serving front end: it accepts
// binary wire-protocol connections (internal/wire) and routes decode
// requests across a set of vegapunkd replicas by rendezvous-hashing
// each model key, so every key pins to one replica and its
// micro-batches stay dense.
//
//	vegapunkrouter -listen :9471 -admin 127.0.0.1:9472 \
//	    -replicas 127.0.0.1:8473,127.0.0.1:8474
//
// Replica health is tracked passively from response flags (breaker
// open, draining) and actively by ping probes; requests that
// a replica sheds or fast-fails are retried on the next-best healthy
// sibling under a per-replica token-bucket retry budget
// (-retry-budget-per-sec), with the retry flagged in the response.
// -hedge-after arms hedged dispatch: a batch without a first response
// inside the window is re-sent to the sibling (rate-capped by
// -hedge-rate), and admission control bounds the lanes in flight so a
// partitioned replica cannot queue-collapse the front end. The admin
// listener serves /metrics (per-replica health, retries, failovers,
// open connections, network-vs-server latency split) and /healthz;
// with -replica-traces it also serves /debug/clustertrace, a Chrome
// trace_event document merging the router's forwarding spans with each
// replica's stage spans, clock-offset aligned.
//
// SIGINT/SIGTERM drain gracefully: in-flight batches finish, then the
// process exits 0.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vegapunk/internal/cluster"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("vegapunkrouter", flag.ExitOnError)
	listen := fs.String("listen", ":9471", "client-facing wire-protocol listen address")
	admin := fs.String("admin", "", "optional admin HTTP listener for /metrics and /healthz (e.g. 127.0.0.1:9472)")
	replicas := fs.String("replicas", "", "comma-separated wire-protocol replica addresses (required)")
	ioTimeout := fs.Duration("io-timeout", 10*time.Second, "backend read/write timeout")
	probeInterval := fs.Duration("probe-interval", 250*time.Millisecond, "active health-probe period")
	poolSize := fs.Int("pool", 4, "idle backend connections kept per replica")
	replicaTraces := fs.String("replica-traces", "", "comma-separated replica debug base URLs (parallel to -replicas, entries may be empty) for /debug/clustertrace merging")
	traceSample := fs.Uint64("trace-sample", 8, "trace one in every N router-originated requests (1 traces everything)")
	retryPerSec := fs.Float64("retry-budget-per-sec", 50, "per-replica retry token refill rate; an empty bucket fails lanes terminally instead of amplifying load")
	retryBurst := fs.Float64("retry-budget-burst", 100, "per-replica retry token bucket capacity")
	hedgeAfter := fs.Duration("hedge-after", 0, "re-send a slow batch to the sibling after this long without a first response (0 disables hedging)")
	hedgeRate := fs.Float64("hedge-rate", 0.1, "hedge tokens earned per forwarded batch; caps hedges as a fraction of traffic")
	retryAfter := fs.Duration("retry-after-hint", 25*time.Millisecond, "how long to route around a replica after it reports overload or loses a hedge race")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}

	logger := log.New(os.Stderr, "vegapunkrouter ", log.LstdFlags|log.Lmicroseconds)

	var addrs []string
	for _, a := range strings.Split(*replicas, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	var traceURLs []string
	if *replicaTraces != "" {
		for _, u := range strings.Split(*replicaTraces, ",") {
			traceURLs = append(traceURLs, strings.TrimSpace(u))
		}
	}
	rt, err := cluster.New(cluster.Config{
		Replicas:         addrs,
		IOTimeout:        *ioTimeout,
		ProbeInterval:    *probeInterval,
		PoolSize:         *poolSize,
		TraceURLs:        traceURLs,
		TraceSampleEvery: *traceSample,

		RetryBudgetPerSec: *retryPerSec,
		RetryBudgetBurst:  *retryBurst,
		HedgeAfter:        *hedgeAfter,
		HedgeMaxRate:      *hedgeRate,
		RetryAfterHint:    *retryAfter,
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
