// Command decodeload is the load generator for vegapunkd: it samples
// errors from the same noise model the daemon serves, sends the
// syndromes over the binary wire protocol (vegapunkd -listen-wire) on
// concurrent persistent connections, checks the predicted logical
// observables against the truth, and prints a reproducible per-run
// summary (QPS, latency percentiles, logical failure rate). Each request
// is one pipelined batch of -batch decode frames.
//
//	decodeload -addr 127.0.0.1:8473 -code "BB [[72,12,6]]" \
//	    -decoder bp -p 0.001 -requests 200 -batch 8 -concurrency 4 -seed 1
//
// -addr may equally name a vegapunkrouter front end instead of a single
// daemon; the summary's retried count is then the responses the router
// re-sent to a sibling replica.
//
//	decodeload -addr 127.0.0.1:9471 ...
//
// Every sampled error is derived from (-seed, request index), so a
// given flag set replays the identical workload regardless of
// concurrency — future perf PRs can track the same benchmark.
//
// Failed requests are reported in separate terminal classes, by the
// wire status of their first failed lane — rejected_503 (Overload: a
// draining service, or a router with no usable replica), decoder_faults
// (DecoderFault/Internal and any other error status) — and
// transport_errors (no daemon response at all).
// With -chaos the run targets a `vegapunkd -chaos` daemon and succeeds
// as long as every request reached a terminal outcome and at least one
// decoded: rejections and faults are then the resilience machinery
// working, not a failed run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vegapunk/internal/exp"
	"vegapunk/internal/gf2"
	"vegapunk/internal/serve"
	"vegapunk/internal/wire"
)

// workItem is one pre-generated request with its ground truth.
type workItem struct {
	syns   []gf2.Vec
	actual []string // true observable flips per syndrome
}

// tally aggregates terminal outcomes across workers. Every request
// lands in exactly one of ok (latencies), rejected503, decoderFault or
// transportErrs — the split tells a resilience run apart from an
// outage (a fault storm is quarantine working; transport errors mean
// the daemon is gone).
type tally struct {
	mu        sync.Mutex
	latencies []time.Duration
	failures  int
	syndromes int
	retried   int // responses the router re-sent to a sibling replica
	// reconnects counts wire connections re-established after transport
	// loss (jittered exponential backoff per worker).
	reconnects int

	rejected503   int // draining service, or router without a usable replica
	decoderFault  int // quarantined decoder or internal server error
	transportErrs int // client timeout, connection or parse failure

	// Server-reported per-stage sums (ns) across all syndromes.
	queueWaitNs, decodeNs, copyOutNs int64

	// Network-vs-server split (from the timing every result carries):
	// per ok request, the replica-resident time is the largest lane's
	// reported queue+decode+copy-out span (lanes of one pipelined batch
	// decode together, so their spans overlap and must not be summed);
	// the remainder of the client wall clock is transport + router relay.
	netNs, serverNs int64
	// timedReqs counts the ok requests whose replica reported a positive
	// server time: all of them, unless timing was lost on the way.
	timedReqs int
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("decodeload", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8473", "wire-protocol address: host:port of vegapunkd -listen-wire or of a vegapunkrouter")
	codeName := fs.String("code", "BB [[72,12,6]]", "benchmark code name (must match the daemon)")
	p := fs.Float64("p", 0.001, "physical error rate (must match the daemon)")
	decoder := fs.String("decoder", "bp", "decoder flag name used at the daemon (derives the model key)")
	requests := fs.Int("requests", 200, "number of requests to send")
	batchSize := fs.Int("batch", 8, "syndromes per request")
	concurrency := fs.Int("concurrency", 4, "concurrent client connections")
	seed := fs.Uint64("seed", 1, "reproducible workload seed")
	traceSample := fs.Uint64("trace-sample", 0, "mark one in N requests trace-sampled so the daemon/router record their spans (0 = no sampling)")
	chaosMode := fs.Bool("chaos", false, "resilience run against a -chaos daemon: individual request failures are expected; exit 0 iff every request reached a terminal outcome and at least one succeeded")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logger := log.New(os.Stderr, "decodeload ", log.LstdFlags)
	if err := exp.CheckP(*p); err != nil {
		logger.Printf("%v", err)
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"requests", *requests}, {"batch", *batchSize}, {"concurrency", *concurrency}} {
		if f.v < 1 {
			logger.Printf("-%s %d: must be at least 1", f.name, f.v)
			return 2
		}
	}
	b, ok := exp.BenchmarkByName(*codeName)
	if !ok {
		logger.Printf("unknown code %q", *codeName)
		return 2
	}
	model, err := exp.NewWorkspace().Model(b, *p)
	if err != nil {
		logger.Printf("build model: %v", err)
		return 1
	}
	key := serve.ModelKey(b.Name, *decoder, *p)

	// Pre-generate the whole workload so concurrency cannot change what
	// is sampled: request i always carries the same syndromes.
	items := make([]workItem, *requests)
	e := gf2.NewVec(model.NumMech())
	for i := range items {
		rng := rand.New(rand.NewPCG(*seed, uint64(i)))
		items[i].syns = make([]gf2.Vec, *batchSize)
		items[i].actual = make([]string, *batchSize)
		for j := 0; j < *batchSize; j++ {
			model.SampleInto(e, rng)
			items[i].syns[j] = model.Syndrome(e)
			items[i].actual[j] = model.Observables(e).String()
		}
	}

	var (
		tl   tally
		next atomic.Int64
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(&tl, &next, items, *addr, key, *traceSample, *seed+uint64(w), logger)
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)

	reqErrs := tl.rejected503 + tl.decoderFault + tl.transportErrs
	if len(tl.latencies) == 0 {
		logger.Printf("no successful requests (rejected_503=%d decoder_faults=%d transport_errors=%d); is the daemon up at %s with model %s?",
			tl.rejected503, tl.decoderFault, tl.transportErrs, *addr, key)
		return 1
	}
	// Nearest-rank percentiles over the full sorted sample set: the
	// q-quantile is the smallest sample with at least ceil(q*n) samples
	// at or below it (so p99 of 200 samples is sample 198, not an
	// index truncated toward the median).
	sort.Slice(tl.latencies, func(i, j int) bool { return tl.latencies[i] < tl.latencies[j] })
	pct := func(q float64) time.Duration {
		idx := int(math.Ceil(q*float64(len(tl.latencies)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(tl.latencies) {
			idx = len(tl.latencies) - 1
		}
		return tl.latencies[idx]
	}
	qps := float64(len(tl.latencies)) / elapsed.Seconds()
	sps := float64(tl.syndromes) / elapsed.Seconds()
	failRate := float64(tl.failures) / float64(max(tl.syndromes, 1))
	perSyn := func(sum int64) time.Duration {
		return time.Duration(sum / int64(max(tl.syndromes, 1))).Round(time.Microsecond)
	}

	// The one-line summary is the trackable serving benchmark: keep the
	// field set stable across PRs.
	fmt.Printf("decodeload: model=%s seed=%d requests=%d batch=%d concurrency=%d "+
		"ok=%d http_errors=%d syndromes=%d elapsed=%s qps=%.1f syndromes_per_sec=%.1f "+
		"p50=%s p99=%s max=%s logical_failures=%d failure_rate=%.3g\n",
		key, *seed, *requests, *batchSize, *concurrency,
		len(tl.latencies), reqErrs, tl.syndromes, elapsed.Round(time.Millisecond), qps, sps,
		pct(0.50), pct(0.99), tl.latencies[len(tl.latencies)-1], tl.failures, failRate)
	// Failure-class breakdown: how the daemon's resilience machinery
	// resolved the requests that did not decode at full quality.
	fmt.Printf("decodeload: classes rejected_503=%d decoder_faults=%d transport_errors=%d retried=%d reconnects=%d\n",
		tl.rejected503, tl.decoderFault, tl.transportErrs, tl.retried, tl.reconnects)
	// Server-side stage breakdown (mean per syndrome): where the latency
	// budget actually goes — waiting in the micro-batch queue, the
	// decoder call, or the pool-boundary copy-out.
	fmt.Printf("decodeload: stages queue_wait_mean=%s decode_mean=%s copy_out_mean=%s\n",
		perSyn(tl.queueWaitNs), perSyn(tl.decodeNs), perSyn(tl.copyOutNs))
	// Network-vs-server split: server_mean is the replica-reported
	// resident time per ok request from the result timing; network_mean
	// is the rest of the client wall clock (transport plus router
	// relay).
	perReq := func(sum int64) time.Duration {
		return time.Duration(sum / int64(len(tl.latencies))).Round(time.Microsecond)
	}
	fmt.Printf("decodeload: split network_mean=%s server_mean=%s timed_requests=%d\n",
		perReq(tl.netNs), perReq(tl.serverNs), tl.timedReqs)
	if *chaosMode {
		// Chaos contract: shed, rejected and faulted requests are the
		// resilience machinery doing its job; the run only fails if the
		// daemon itself became unreachable or nothing at all succeeded
		// (len(latencies) == 0 already returned above).
		if tl.transportErrs > 0 {
			logger.Printf("chaos run saw %d transport errors: requests without a terminal daemon response", tl.transportErrs)
			return 1
		}
		return 0
	}
	if reqErrs > 0 {
		return 1
	}
	return 0
}

// worker drains items over one persistent wire connection: each
// request is a pipelined frame batch. A request counts as ok only when
// every lane in the batch decoded; otherwise it lands in the class of
// its first failed lane (Overload → rejected_503, DecoderFault/Internal
// → decoder_faults). On transport
// loss the worker reconnects once per item before failing it, through
// a per-worker wire.Redialer — capped exponential backoff with
// deterministic jitter, so workers hammered off a flapping daemon do
// not redial in lockstep.
func worker(tl *tally, next *atomic.Int64, items []workItem, addr, key string, traceSample, workerSeed uint64, logger *log.Logger) {
	var (
		c    *wire.Client
		info wire.ModelInfo
		res  wire.Result
	)
	rd := &wire.Redialer{
		Addr:        addr,
		DialTimeout: 2 * time.Second,
		IOTimeout:   10 * time.Second, // per-request client timeout
		Seed:        workerSeed,
	}
	dialed := 0
	connect := func() error {
		var err error
		c, err = rd.Dial()
		if err != nil {
			c = nil
			return err
		}
		dialed++
		if dialed > 1 {
			tl.mu.Lock()
			tl.reconnects++
			tl.mu.Unlock()
		}
		info, err = c.Hello(key)
		if err != nil {
			logger.Printf("hello %s: %v", key, err)
			_ = c.Close() // best-effort: failed handshake
			c = nil
			return err
		}
		wire.SizeResult(&res, info.NumMech, info.NumObs)
		return nil
	}
	defer func() {
		if c != nil {
			_ = c.Close() // best-effort: load run is over
		}
	}()

	for {
		i := next.Add(1) - 1
		if i >= int64(len(items)) {
			return
		}
		item := &items[i]
		if c == nil {
			if err := connect(); err != nil {
				// A status refusal of the handshake (e.g. a router
				// answering overload while its whole replica set is down)
				// is a terminal daemon response, not transport loss:
				// classify it like the matching decode status so chaos
				// runs do not mistake rejection for an unreachable tier.
				var se *wire.StatusError
				tl.mu.Lock()
				switch {
				case !errors.As(err, &se):
					tl.transportErrs++
				case se.Status == wire.StatusOverload:
					tl.rejected503++
				default:
					tl.decoderFault++
				}
				tl.mu.Unlock()
				continue
			}
		}

		// Every request carries a trace id; the sampled bit — which makes
		// the daemon and router record spans — is set on one in
		// -trace-sample requests.
		sampled := traceSample > 0 && uint64(i)%traceSample == 0
		start := time.Now()
		for j, syn := range item.syns {
			reqID := uint64(i)<<16 | uint64(j)
			c.QueueDecodeTraced(info.ID, reqID, syn,
				wire.TraceContext{TraceID: reqID + 1, Sampled: sampled})
		}
		type laneOut struct {
			status      wire.Status
			flags       wire.Flags
			match       bool
			queueWaitNs int64
			decodeNs    int64
			copyOutNs   int64
			serverNs    int64
		}
		lanes := make([]laneOut, 0, len(item.syns))
		var terr error
		transport := false
		if err := c.Flush(); err != nil {
			transport, terr = true, err
		}
		if !transport {
			for j := range item.syns {
				h, err := c.ReadResult(&res)
				if err != nil {
					transport, terr = true, err
					break
				}
				lo := laneOut{status: res.Status, flags: h.Flags,
					queueWaitNs: res.QueueWaitNs, decodeNs: res.DecodeNs, copyOutNs: res.CopyOutNs,
					serverNs: res.ServerNs()}
				if res.Status == wire.StatusOK {
					lo.match = res.Observables.String() == item.actual[j]
				}
				lanes = append(lanes, lo)
			}
		}
		lat := time.Since(start)
		if transport {
			// The connection is in an unknown state: drop it and
			// reconnect for the next item.
			logger.Printf("request %d: transport failure: %v", i, terr)
			_ = c.Close() // best-effort: already failed
			c = nil
		}

		tl.mu.Lock()
		firstBad := wire.StatusOK
		for _, lo := range lanes {
			if lo.flags&wire.FlagRetried != 0 {
				tl.retried++
			}
			if lo.status != wire.StatusOK && firstBad == wire.StatusOK {
				firstBad = lo.status
			}
		}
		switch {
		case transport:
			tl.transportErrs++
		case firstBad == wire.StatusOK:
			tl.latencies = append(tl.latencies, lat)
			serverReqNs := int64(0)
			for _, lo := range lanes {
				tl.syndromes++
				tl.queueWaitNs += lo.queueWaitNs
				tl.decodeNs += lo.decodeNs
				tl.copyOutNs += lo.copyOutNs
				serverReqNs = max(serverReqNs, lo.serverNs)
				if !lo.match {
					tl.failures++
				}
			}
			tl.serverNs += serverReqNs
			if serverReqNs > 0 {
				tl.timedReqs++
			}
			if net := lat.Nanoseconds() - serverReqNs; net > 0 {
				tl.netNs += net
			}
		case firstBad == wire.StatusOverload:
			tl.rejected503++
		default:
			// DecoderFault, Internal, BadRequest, UnknownModel, …: the
			// daemon answered terminally, so whatever the status, this is
			// a server-side error, never transport loss — transport_errors
			// is reserved for requests with no terminal response at all.
			tl.decoderFault++
		}
		tl.mu.Unlock()
	}
}
