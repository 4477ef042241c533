// Command vegapunkd is the online decoding daemon: it registers one or
// more (code, noise, decoder) models and serves syndrome decoding over
// the binary wire protocol (internal/wire) with micro-batching onto
// workers that each own a decoder, and Prometheus metrics.
//
//	vegapunkd -addr :8471 -listen-wire :8473 -code "BB [[72,12,6]]" -p 0.001 -decoders bp,vegapunk
//
// Decodes arrive on -listen-wire (default :8473): length-prefixed frames
// carrying raw syndrome/correction words over persistent connections,
// the protocol vegapunkrouter and decodeload speak. Pipelined frames
// coalesce into the same micro-batches. The HTTP listener on -addr
// serves:
//
//	GET  /v1/models        registered model keys and dimensions
//	GET  /metrics          Prometheus text format
//	GET  /healthz          liveness
//	GET  /debug/decodetrace  sampled decode spans as Chrome trace JSON
//
// With -debug-addr a second localhost listener serves net/http/pprof
// (/debug/pprof/...) plus the same decode-trace dump; with -slow-log
// every request slower than 10 ms end to end is appended to the given
// file as one JSON line. Pool size and the flush deadline are
// internal/serve's defaults; a wire request carries no deadline, and
// the hang watchdog bounds every dispatch. A faulting decoder is
// quarantined and rebuilt, and the replica keeps admitting work: backing
// off a replica that keeps faulting is vegapunkrouter's job, where a
// sibling can take the traffic.
//
// With -chaos every registered decoder factory is wrapped in a
// deterministic fault injector (internal/fault) seeded by
// -chaos-seed: a small fraction of decodes run slow, panic, return
// wrong-length results, or stall past the watchdog. This exercises the
// resilience machinery — worker quarantine, hang watchdog and decoder
// rebuild — against a live daemon; injected fault totals are logged at
// shutdown. Every decode runs its decoder's constructed configuration:
// there is no cheaper tier to fall back to under load, and nothing is
// shed.
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish, queues
// flush, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/exp"
	"vegapunk/internal/fault"
	"vegapunk/internal/hier"
	"vegapunk/internal/obs"
	"vegapunk/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("vegapunkd", flag.ExitOnError)
	addr := fs.String("addr", ":8471", "HTTP listen address (/v1/models, /metrics, /healthz)")
	wireAddr := fs.String("listen-wire", ":8473", "binary wire-protocol listener, the one decode path (vegapunkrouter, decodeload)")
	codeName := fs.String("code", "BB [[72,12,6]]", "benchmark code name (see 'vegapunk codes')")
	p := fs.Float64("p", 0.001, "physical error rate of the served noise model")
	decoders := fs.String("decoders", "vegapunk,bp", "comma-separated decoders to register: vegapunk, bp, bp+osd, bp+lsd")
	batch := fs.Int("batch", 16, "micro-batch flush size")
	debugAddr := fs.String("debug-addr", "", "optional localhost listener for /debug/pprof and /debug/decodetrace (e.g. 127.0.0.1:8472)")
	traceSample := fs.Uint64("trace-sample", 8, "trace one in N decodes into the span rings (0 disables tracing)")
	slowLogPath := fs.String("slow-log", "", "append slow-request JSON lines to this file ('-' for stderr)")
	hangTimeout := fs.Duration("hang-timeout", time.Second, "decode watchdog: quarantine a decoder instance that has not returned after this long")
	chaos := fs.Bool("chaos", false, "wrap every decoder in a deterministic fault injector (testing only)")
	chaosSeed := fs.Uint64("chaos-seed", 1, "fault injector base seed (with -chaos)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}

	logger := log.New(os.Stderr, "vegapunkd ", log.LstdFlags|log.Lmicroseconds)
	if err := exp.CheckP(*p); err != nil {
		logger.Printf("%v", err)
		return 2
	}
	if *wireAddr == "" {
		logger.Printf("-listen-wire is empty: it is the one decode path")
		return 2
	}

	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: *traceSample})
	var slowLog *obs.SlowLog
	switch *slowLogPath {
	case "":
	case "-":
		slowLog = obs.NewSlowLog(os.Stderr)
	default:
		f, err := os.OpenFile(*slowLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Printf("open slow log: %v", err)
			return 1
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				logger.Printf("close slow log: %v", cerr)
			}
		}()
		slowLog = obs.NewSlowLog(f)
	}
	if slowLog != nil {
		defer slowLog.Close()
	}

	b, ok := exp.BenchmarkByName(*codeName)
	if !ok {
		logger.Printf("unknown code %q; run 'vegapunk codes' for the registry", *codeName)
		return 2
	}
	ws := exp.NewWorkspace()
	model, err := ws.Model(b, *p)
	if err != nil {
		logger.Printf("build model: %v", err)
		return 1
	}

	srv := serve.NewServer(serve.Config{
		MaxBatch:    *batch,
		Tracer:      tracer,
		SlowLog:     slowLog,
		HangTimeout: *hangTimeout,
	})
	// Low but lively default mix: mostly-healthy traffic with every fault
	// kind represented, so a chaos run exercises quarantine, the
	// watchdog and the rebuild without drowning the service.
	chaosPlan := fault.Plan{Seed: *chaosSeed, Mix: map[fault.Kind]float64{
		fault.Slow: 0.02, fault.Crash: 0.005, fault.Corrupt: 0.005, fault.Stall: 0.002,
	}}
	for _, name := range strings.Split(*decoders, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		factory, err := buildFactory(ws, b, model, name)
		if err != nil {
			logger.Printf("%v", err)
			return 1
		}
		key := serve.ModelKey(b.Name, name, *p)
		if *chaos {
			var counters *fault.Counters
			factory, counters = fault.Wrap(factory, chaosPlan)
			defer func() { logger.Printf("chaos totals model=%s %s", key, counters) }()
		}
		display := factory().Name()
		if _, err := srv.Register(key, model, display, factory); err != nil {
			logger.Printf("register %s: %v", key, err)
			return 1
		}
		logger.Printf("registered model=%s decoder=%s detectors=%d mechanisms=%d",
			key, display, model.NumDet, model.NumMech())
	}
	if *chaos {
		logger.Printf("CHAOS MODE: fault injection enabled (seed=%d); do not use in production", *chaosSeed)
	}

	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: obs.DebugMux(tracer)}
		// Lives for the process; the OS reaps it when main exits.
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Printf("debug listener: %v", err)
			}
		}()
		logger.Printf("debug endpoints (pprof, decodetrace) on %s", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 2) // one per listener
	go func() { errCh <- srv.ListenAndServe(*addr) }()
	go func() { errCh <- srv.ListenAndServeWire(*wireAddr) }()
	logger.Printf("listening on %s, wire protocol on %s", *addr, *wireAddr)

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
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Printf("shutdown: %v", err)
		return 1
	}
	for range 2 {
		if err := <-errCh; err != nil {
			logger.Printf("serve: %v", err)
			return 1
		}
	}
	logger.Printf("drained, bye")
	return 0
}

// bpIters caps BP iterations of the bp and bp+osd decoders (bp is
// Relay-BP: the cap is per leg).
const bpIters = 100

// buildFactory maps a decoder flag name to a per-goroutine decoder
// factory, mirroring the baseline configurations of internal/exp. BPGD
// is not among them: one decode takes tens to hundreds of milliseconds
// (p99 0.9–1.3 s on BB [[144,12,12]]), which the hang watchdog's budget
// for a whole dispatch cannot tell from a hung decoder.
func buildFactory(ws *exp.Workspace, b exp.Benchmark, model *dem.Model, name string) (core.Factory, error) {
	switch strings.ToLower(name) {
	case "vegapunk":
		dcp, err := ws.Decoupling(b)
		if err != nil {
			return nil, fmt.Errorf("offline decoupling for %s: %w", b.Name, err)
		}
		return func() core.Decoder { return core.NewVegapunkFrom(model, dcp, hier.Config{}) }, nil
	case "bp":
		return func() core.Decoder { return core.NewBP(model, bpIters) }, nil
	case "bp+osd":
		return func() core.Decoder { return core.NewBPOSD(model, bpIters, 7) }, nil
	case "bp+lsd":
		return func() core.Decoder { return core.NewBPLSD(model) }, nil
	}
	return nil, fmt.Errorf("unknown decoder %q (want vegapunk, bp, bp+osd or bp+lsd)", name)
}
