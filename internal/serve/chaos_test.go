package serve

// The chaos suite drives the resilience machinery — worker quarantine,
// hang watchdog and decoder rebuild — with
// deterministic fault schedules from internal/fault.
// Run with -race (CI does): every scenario also doubles as a
// concurrency soak over the request state machine.

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/fault"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// waitGoroutines polls until the goroutine count returns to the
// baseline, failing with a full stack dump if it never does — the
// leak check for abandoned workers and drained services.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: %d > baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
}

// serialChaosConfig pins the service to one worker and batch size one
// so scripted fault schedules map 1:1 onto request order.
func serialChaosConfig() Config {
	return Config{
		MaxBatch: 1, MaxWait: 50 * time.Microsecond,
		PoolSize:    1,
		HangTimeout: time.Second,
	}
}

func TestChaosPanicQuarantineAndRecovery(t *testing.T) {
	model, factory := testModel(t)
	wrapped, counters := fault.Wrap(factory, fault.Plan{
		Seed:   1,
		Script: []fault.Kind{fault.Pass, fault.Crash},
	})
	svc := newService("chaos", model, "BP(30)+chaos", wrapped, serialChaosConfig())
	defer svc.Close()

	syndromes := sampleSyndromes(model, 8, 1)
	var res Result
	oks, faults := 0, 0
	for i, syn := range syndromes {
		switch err := svc.DecodeInto(context.Background(), &res, syn); {
		case err == nil:
			oks++
		case errors.Is(err, ErrDecoderFault):
			faults++
		default:
			t.Fatalf("decode %d: unexpected error %v", i, err)
		}
	}
	if faults != 1 || oks != 7 {
		t.Errorf("oks=%d faults=%d, want 7/1", oks, faults)
	}
	if counters.Of(fault.Crash) != 1 {
		t.Errorf("injected panics = %d, want 1", counters.Of(fault.Crash))
	}
	if got := svc.met.decoderPanics.Load(); got != 1 {
		t.Errorf("decoder_panics_total = %d, want 1", got)
	}
	if got := quarantines(svc); got != 1 {
		t.Errorf("quarantines = %d, want 1", got)
	}
}

func TestChaosWrongLengthQuarantine(t *testing.T) {
	model, factory := testModel(t)
	wrapped, _ := fault.Wrap(factory, fault.Plan{
		Seed:   1,
		Script: []fault.Kind{fault.Corrupt},
	})
	svc := newService("chaos", model, "BP(30)+chaos", wrapped, serialChaosConfig())
	defer svc.Close()

	syndromes := sampleSyndromes(model, 3, 2)
	var res Result
	if err := svc.DecodeInto(context.Background(), &res, syndromes[0]); !errors.Is(err, ErrDecoderFault) {
		t.Fatalf("wrong-length decode returned %v, want ErrDecoderFault", err)
	}
	// The defective instance is gone; the replacement serves cleanly.
	for _, syn := range syndromes[1:] {
		if err := svc.DecodeInto(context.Background(), &res, syn); err != nil {
			t.Fatalf("decode after quarantine: %v", err)
		}
	}
	if got := svc.met.decoderBadResults.Load(); got != 1 {
		t.Errorf("decoder_bad_results_total = %d, want 1", got)
	}
	if got := quarantines(svc); got != 1 {
		t.Errorf("quarantines = %d, want 1", got)
	}
}

func TestChaosHangWatchdog(t *testing.T) {
	model, factory := testModel(t)
	release := make(chan struct{})
	wrapped, _ := fault.Wrap(factory, fault.Plan{
		Seed:         1,
		Script:       []fault.Kind{fault.Stall},
		StallRelease: release,
	})
	base := runtime.NumGoroutine()
	cfg := serialChaosConfig()
	cfg.HangTimeout = 30 * time.Millisecond
	svc := newService("chaos", model, "BP(30)+chaos", wrapped, cfg)

	syndromes := sampleSyndromes(model, 2, 3)
	var res Result
	start := time.Now()
	if err := svc.DecodeInto(context.Background(), &res, syndromes[0]); !errors.Is(err, ErrDecoderFault) {
		t.Fatalf("hung decode returned %v, want ErrDecoderFault", err)
	}
	if elapsed := time.Since(start); elapsed < cfg.HangTimeout {
		t.Errorf("watchdog fired after %v, before the %v timeout", elapsed, cfg.HangTimeout)
	}
	// The replacement decoder serves the next request while the hung
	// instance is still stuck inside Decode.
	if err := svc.DecodeInto(context.Background(), &res, syndromes[1]); err != nil {
		t.Fatalf("decode after hang quarantine: %v", err)
	}
	if got := svc.met.decoderHangs.Load(); got != 1 {
		t.Errorf("decoder_hangs_total = %d, want 1", got)
	}
	// Unstick the hung decode: its abandoned worker must lose the phase
	// CAS and exit without leaking a goroutine.
	close(release)
	svc.Close()
	waitGoroutines(t, base)
}

// serviceGoroutines counts the live goroutines a Service started, by
// the "created by" line of their stacks: the ones newService starts, and
// any that Service or workerState code started later (a decode goroutine
// beside the worker, a monitor, a replacement worker). Reading stacks
// rather than runtime.NumGoroutine keeps goroutines of earlier tests
// that are still winding down out of the count.
func serviceGoroutines() (initial, later int) {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		switch {
		case strings.Contains(g, "created by vegapunk/internal/serve.newService"):
			initial++
		case strings.Contains(g, "created by vegapunk/internal/serve.(*Service)."),
			strings.Contains(g, "created by vegapunk/internal/serve.(*workerState)."):
			later++
		}
	}
	return
}

// noServiceGoroutines fails unless every service goroutine is gone,
// yielding while ones that already signalled their exit finish it.
func noServiceGoroutines(t *testing.T) {
	t.Helper()
	for i := 0; ; i++ {
		initial, later := serviceGoroutines()
		if initial+later == 0 {
			return
		}
		if i == 10000 {
			t.Fatalf("%d+%d service goroutines with no service open", initial, later)
		}
		runtime.Gosched()
	}
}

// TestChaosServiceGoroutines pins the shape of a service: one batcher
// and one worker per decoder instance, nothing else — no decode goroutine
// beside the worker, no standing watchdog — at rest and after a decode.
func TestChaosServiceGoroutines(t *testing.T) {
	model, factory := testModel(t)
	noServiceGoroutines(t) // an earlier test's workers may be between wg.Done and exit
	svc := newService("chaos", model, "BP(30)", factory, Config{PoolSize: 3})
	if initial, later := serviceGoroutines(); initial != 1+3 || later != 0 {
		t.Errorf("service at rest runs %d+%d goroutines, want 1 batcher + 3 workers and none started later", initial, later)
	}
	var res Result
	if err := svc.DecodeInto(context.Background(), &res, sampleSyndromes(model, 1, 9)[0]); err != nil {
		t.Fatal(err)
	}
	if initial, later := serviceGoroutines(); initial != 1+3 || later != 0 {
		t.Errorf("service runs %d+%d goroutines after a decode, want 4+0", initial, later)
	}
	svc.Close()
	noServiceGoroutines(t)
}

// TestChaosWorkerOwnsDecoder holds the ownership rule under load: each
// worker builds one decoder on its first dispatch and keeps it, so 16
// clients on 3 workers build exactly 3 instances and never share one;
// every dispatch is a hit or a miss; a panic poisons exactly one
// instance, which never decodes again, and its worker builds exactly one
// replacement. The ownedFixture and the two single-property tests live in
// pool_test.go.
func TestChaosWorkerOwnsDecoder(t *testing.T) {
	const poolSize, clients, perClient = 3, 16, 50
	script := make([]fault.Kind, clients*perClient+1)
	script[clients*perClient] = fault.Crash // the first decode after the storm
	f := newOwnedFixture(t, Config{PoolSize: poolSize}, script)
	pool := f.svc.Pool()

	f.storm(t, clients, perClient)
	// More builds than workers is the bug; fewer would mean the storm
	// missed a worker, which then builds during the count below.
	if built := f.built.Load(); built != poolSize {
		t.Fatalf("factory ran %d times for %d workers, want one each", built, poolSize)
	}
	f.balanced(t, "after the storm")

	poisoned := f.panicOnce(t)
	// Serial decodes rotate over the workers; the poisoned one rebuilds
	// when it next gets a dispatch.
	for i := 0; i < 200 && f.built.Load() == poolSize; i++ {
		f.decode(t, 1)
	}
	f.decode(t, 4*poolSize)
	if got := quarantines(f.svc); got != 1 {
		t.Errorf("quarantines = %d, want 1", got)
	}
	if got := pool.Misses(); got != poolSize+1 {
		t.Errorf("Misses() = %d after one quarantine, want %d", got, poolSize+1)
	}
	f.balanced(t, "after the quarantine")
	neverAfter(t, f.served(), clients*perClient+1, poisoned)
}

// cueDecoder is the BP test decoder with a test-supplied hook at the top
// of the i-th Decode call counted across all instances of one factory:
// the hook can park on a channel or panic on cue, with the worker-owned
// syndrome lane the call was handed in view.
type cueDecoder struct {
	core.Decoder
	calls *atomic.Int32
	hooks []func(syn gf2.Vec)
}

func (d cueDecoder) Decode(syn gf2.Vec) (gf2.Vec, core.Stats) {
	if i := int(d.calls.Add(1)) - 1; i < len(d.hooks) {
		d.hooks[i](syn)
	}
	return d.Decoder.Decode(syn)
}

// faultRig is a decoder factory for testChaosBatchFault: decode 0 parks
// inside the only worker (plugged returns once it has) until unplug, so
// that the next 8 requests queue up and the batcher hands them over as
// one batch, and a decode of that batch faults.
type faultRig struct {
	factory core.Factory
	plugged func()
	unplug  func()
}

// cueRig faults in the batch's first decode, by running fault.
func cueRig(factory core.Factory, fault func(syn gf2.Vec)) faultRig {
	plugged, plug := make(chan struct{}), make(chan struct{})
	calls := new(atomic.Int32)
	hooks := []func(gf2.Vec){func(gf2.Vec) { close(plugged); <-plug }, fault}
	return faultRig{
		factory: func() core.Decoder { return cueDecoder{factory(), calls, hooks} },
		plugged: func() { <-plugged },
		unplug:  func() { close(plug) },
	}
}

// injectRig is the same schedule from a fault script, the panic in
// the batch's third decode: lanes decoded before it fail with the rest.
func injectRig(factory core.Factory) faultRig {
	plug := make(chan struct{})
	wrapped, counters := fault.Wrap(factory, fault.Plan{
		Seed:         1,
		Script:       []fault.Kind{fault.Stall, fault.Pass, fault.Pass, fault.Crash},
		StallRelease: plug,
	})
	return faultRig{
		factory: wrapped,
		plugged: func() {
			for counters.Of(fault.Stall) == 0 {
				runtime.Gosched()
			}
		},
		unplug: func() { close(plug) },
	}
}

// testChaosBatchFault puts 8 lanes into one dispatch that then faults
// (the rig hangs or panics in it) and checks the multi-lane settlement:
// every lane failed exactly once, one fault counted, one instance
// poisoned, the next 8 served by the replacement.
func testChaosBatchFault(t *testing.T, rig func(core.Factory) faultRig, faults func(*Service) uint64, release func()) {
	model, factory := testModel(t)
	const lanes = 8
	r := rig(factory)
	base := runtime.NumGoroutine()
	svc := newService("chaos", model, "BP(30)+cue", r.factory, Config{
		MaxBatch: lanes, MaxWait: time.Second, PoolSize: 1,
		HangTimeout: 300 * time.Millisecond,
	})

	ctx := context.Background()
	syndromes := sampleSyndromes(model, 1+2*lanes, 11)
	first, err := svc.submitTraced(ctx, syndromes[0], wireTrace{})
	if err != nil {
		t.Fatal(err)
	}
	r.plugged()
	reqs := make([]*request, lanes)
	for i := range reqs {
		if reqs[i], err = svc.submitTraced(ctx, syndromes[1+i], wireTrace{}); err != nil {
			t.Fatal(err)
		}
	}
	r.unplug()
	var res Result
	if err := svc.wait(ctx, first, &res); err != nil {
		t.Fatalf("plug decode: %v", err)
	}
	for i, req := range reqs {
		if err := svc.wait(ctx, req, &res); !errors.Is(err, ErrDecoderFault) {
			t.Fatalf("lane %d of the faulted dispatch returned %v, want ErrDecoderFault", i, err)
		}
	}
	if got := svc.met.batchSize.Count(); got != 2 {
		t.Fatalf("%d dispatches for the plug and the %d faulted lanes, want 2: the fault did not meet all lanes at once", got, lanes)
	}
	// Each lane was settled exactly once: a second finish would drive
	// the depth negative (and block on the request's done channel).
	if got := svc.met.queueDepth.Load(); got != 0 {
		t.Errorf("queue depth = %d after the fault, want 0", got)
	}
	if got := faults(svc); got != 1 {
		t.Errorf("fault counter = %d, want 1", got)
	}
	if got := quarantines(svc); got != 1 {
		t.Errorf("quarantines = %d, want 1", got)
	}
	// The replacement serves the next 8 (while a hung call is still stuck).
	results := make([]Result, lanes)
	if err := svc.DecodeBatchInto(ctx, results, syndromes[1+lanes:]); err != nil {
		t.Fatalf("decode after quarantine: %v", err)
	}
	for i := range results {
		if !results[i].Satisfied {
			t.Errorf("lane %d after quarantine: correction does not satisfy its syndrome", i)
		}
	}
	release()
	svc.Close()
	waitGoroutines(t, base)
}

// TestChaosBatchHang also holds the worker-owned-lanes invariant: the 8
// requests are failed, recycled and reused for the next 8 syndromes
// while the hung call still holds its input, and when the call finally
// reads that input it must find the syndrome it was given — it would
// find one of the next 8 if the lane were request memory.
func TestChaosBatchHang(t *testing.T) {
	release := make(chan struct{})
	var clobbered atomic.Bool
	testChaosBatchFault(t, func(f core.Factory) faultRig {
		return cueRig(f, func(syn gf2.Vec) {
			given := syn.Clone()
			<-release
			if !syn.Equal(given) {
				clobbered.Store(true)
			}
		})
	},
		func(s *Service) uint64 { return s.met.decoderHangs.Load() },
		func() { close(release) })
	// testChaosBatchFault returned after the stuck goroutine exited.
	if clobbered.Load() {
		t.Error("the hung decoder's input lane changed under it after its requests were recycled")
	}
}

func TestChaosBatchPanic(t *testing.T) {
	panics := func(s *Service) uint64 { return s.met.decoderPanics.Load() }
	t.Run("cue", func(t *testing.T) {
		testChaosBatchFault(t, func(f core.Factory) faultRig {
			return cueRig(f, func(gf2.Vec) { panic("cue: injected batch panic") })
		}, panics, func() {})
	})
	// A fault-wrapped decoder meets multi-lane dispatches like any
	// other (what `vegapunkd -chaos` serves).
	t.Run("faultinject", func(t *testing.T) {
		testChaosBatchFault(t, injectRig, panics, func() {})
	})
}

// photoFinish decodes like the BP test decoder after a wait drawn around
// the service's HangTimeout, so decode and watchdog finish neck and neck.
type photoFinish struct {
	core.Decoder
	mu  *sync.Mutex
	rng *rand.Rand
}

func (d photoFinish) Decode(s gf2.Vec) (gf2.Vec, core.Stats) {
	d.mu.Lock()
	wait := 1500*time.Microsecond + time.Duration(d.rng.Int64N(int64(time.Millisecond)))
	d.mu.Unlock()
	<-time.After(wait)
	return d.Decoder.Decode(s)
}

// TestChaosWatchdogPhotoFinish races the worker and its watchdog on the
// phase word 300 times: every decode takes HangTimeout ± 0.5 ms. Whoever
// wins the CAS must settle the request alone — every call returns nil or
// ErrDecoderFault, successes and hangs add up to the requests, the pool
// balances. It also holds the spent-firing invariant: a firing that lost
// the CAS must be waited for before the next arm, or its late callback
// abandons the next dispatch — which shows as a fault reported sooner
// than HangTimeout after the request was submitted.
func TestChaosWatchdogPhotoFinish(t *testing.T) {
	model, factory := testModel(t)
	const requests, clients = 300, 2
	cfg := Config{
		MaxBatch: 1, PoolSize: clients,
		HangTimeout: 2 * time.Millisecond,
	}
	mu, rng := new(sync.Mutex), rand.New(rand.NewPCG(20, 0))
	base := runtime.NumGoroutine()
	svc := newService("chaos", model, "BP(30)+photo", func() core.Decoder {
		return photoFinish{factory(), mu, rng}
	}, cfg)

	syndromes := sampleSyndromes(model, 16, 12)
	var oks, faults atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var res Result
			for i := c; i < requests; i += clients {
				start := time.Now()
				switch err := svc.DecodeInto(context.Background(), &res, syndromes[i%len(syndromes)]); {
				case err == nil:
					oks.Add(1)
				case errors.Is(err, ErrDecoderFault):
					faults.Add(1)
					if elapsed := time.Since(start); elapsed < cfg.HangTimeout {
						t.Errorf("request %d abandoned after %v, before the %v timeout", i, elapsed, cfg.HangTimeout)
					}
				default:
					t.Errorf("request %d: unexpected outcome %v", i, err)
				}
			}
		}(c)
	}
	wg.Wait()
	svc.Close()
	hangs := int64(svc.met.decoderHangs.Load())
	if faults.Load() != hangs || oks.Load()+hangs != requests {
		t.Errorf("oks=%d faults=%d hangs=%d, want faults == hangs and oks + hangs == %d", oks.Load(), faults.Load(), hangs, requests)
	}
	t.Logf("worker won %d, watchdog won %d", oks.Load(), hangs)
	pool := svc.Pool()
	if pool.Misses() > uint64(pool.Size())+quarantines(svc) {
		t.Errorf("pool misses=%d size=%d quarantines=%d", pool.Misses(), pool.Size(), quarantines(svc))
	}
	if got := svc.met.queueDepth.Load(); got != 0 {
		t.Errorf("queue depth = %d after Close, want 0", got)
	}
	waitGoroutines(t, base)
}

// TestChaosCloseDuringHang closes the service while a decode is hung
// for good: the watchdog settles the dispatch and hands the WaitGroup
// slot to a replacement that sees the closed queue, so Close returns
// about HangTimeout later with the decoder still stuck; the stuck
// goroutine exits once released. It holds the no-request-reads-while-
// armed invariant: the request is failed and recycled under the hung
// worker, which -race reports if the worker looks at it again.
func TestChaosCloseDuringHang(t *testing.T) {
	model, factory := testModel(t)
	release := make(chan struct{})
	wrapped, _ := fault.Wrap(factory, fault.Plan{
		Seed:         1,
		Script:       []fault.Kind{fault.Stall},
		StallRelease: release,
	})
	base := runtime.NumGoroutine()
	cfg := serialChaosConfig()
	cfg.HangTimeout = 30 * time.Millisecond
	cfg.Tracer = obs.NewTracer(obs.TracerConfig{SampleEvery: 1}) // sampled: the worker derives the probe id from the request before arming
	svc := newService("chaos", model, "BP(30)+chaos", wrapped, cfg)

	ctx := context.Background()
	req, err := svc.submitTraced(ctx, sampleSyndromes(model, 1, 13)[0], wireTrace{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	svc.Close()
	if elapsed := time.Since(start); elapsed > cfg.HangTimeout+2*time.Second {
		t.Errorf("Close took %v with a decoder hung forever, want about %v", elapsed, cfg.HangTimeout)
	}
	var res Result
	if err := svc.wait(ctx, req, &res); !errors.Is(err, ErrDecoderFault) {
		t.Fatalf("request hung across Close returned %v, want ErrDecoderFault", err)
	}
	if got := svc.met.decoderHangs.Load(); got != 1 {
		t.Errorf("decoder_hangs_total = %d, want 1", got)
	}
	close(release)
	waitGoroutines(t, base)
}

// TestChaosRepeatedFaultsStillDecode: a service whose decoder faults
// on three dispatches in a row fails exactly those three requests and
// decodes the fourth. Each fault quarantines its instance and the next
// dispatch builds a fresh one; nothing in the service refuses healthy
// work after a run of faults (backing off a faulting replica is the
// router's job, where a sibling exists).
func TestChaosRepeatedFaultsStillDecode(t *testing.T) {
	model, factory := testModel(t)
	wrapped, counters := fault.Wrap(factory, fault.Plan{
		Seed:   1,
		Script: []fault.Kind{fault.Crash, fault.Crash, fault.Crash},
	})
	svc := newService("chaos", model, "BP(30)+chaos", wrapped, serialChaosConfig())
	defer svc.Close()

	syndromes := sampleSyndromes(model, 4, 4)
	var res Result
	for i := 0; i < 3; i++ {
		if err := svc.DecodeInto(context.Background(), &res, syndromes[i]); !errors.Is(err, ErrDecoderFault) {
			t.Fatalf("decode %d: %v, want ErrDecoderFault", i, err)
		}
	}
	if err := svc.DecodeInto(context.Background(), &res, syndromes[3]); err != nil {
		t.Fatalf("decode after three faults: %v", err)
	}
	if got := counters.Of(fault.Crash); got != 3 {
		t.Errorf("crashes = %d, want 3", got)
	}
	if got := svc.met.decoderPanics.Load(); got != 3 {
		t.Errorf("decoder_panics_total = %d, want 3", got)
	}
}

// TestChaosBatchCallMarksFaultedLanes: one scripted crash inside a
// 64-lane DecodeBatchInto call fails exactly the lanes of the dispatch
// it hit, and Result.Err tells the caller which: the first decode
// crashes, so the faulted lanes are a prefix of at most MaxBatch, and
// every other lane carries a nil Err and a satisfied answer. A call on
// a closed service marks every lane with the submission error.
func TestChaosBatchCallMarksFaultedLanes(t *testing.T) {
	model, factory := testModel(t)
	wrapped, _ := fault.Wrap(factory, fault.Plan{Seed: 1, Script: []fault.Kind{fault.Crash}})
	const maxBatch = 16
	svc := newService("chaos", model, "BP(30)+chaos", wrapped, Config{MaxBatch: maxBatch, PoolSize: 1})
	defer svc.Close()

	syndromes := sampleSyndromes(model, 64, 21)
	res := make([]Result, len(syndromes))
	if err := svc.DecodeBatchInto(context.Background(), res, syndromes); !errors.Is(err, ErrDecoderFault) {
		t.Fatalf("DecodeBatchInto: %v, want ErrDecoderFault", err)
	}
	faulted := 0
	for faulted < len(res) && errors.Is(res[faulted].Err, ErrDecoderFault) {
		faulted++
	}
	if faulted == 0 || faulted > maxBatch {
		t.Fatalf("%d leading lanes faulted, want the 1..%d of the first dispatch", faulted, maxBatch)
	}
	for i := faulted; i < len(res); i++ {
		if res[i].Err != nil || !res[i].Satisfied {
			t.Fatalf("lane %d after the faulted dispatch: Err %v, satisfied %v", i, res[i].Err, res[i].Satisfied)
		}
	}
	if got := svc.met.decoderPanics.Load(); got != 1 {
		t.Errorf("decoder_panics_total = %d, want 1", got)
	}

	svc.Close()
	if err := svc.DecodeBatchInto(context.Background(), res, syndromes); !errors.Is(err, ErrClosed) {
		t.Fatalf("DecodeBatchInto on a closed service: %v, want ErrClosed", err)
	}
	for i := range res {
		if !errors.Is(res[i].Err, ErrClosed) {
			t.Fatalf("lane %d on a closed service: Err %v, want ErrClosed", i, res[i].Err)
		}
	}
}

// TestChaosSlowDecodesDoNotLatch: after a run of slow decodes (the
// sleep runs inside the decoder), a request whose budget is a quarter of
// one slow decode must still be decoded. A shed test that compares the
// budget with an estimate of past decode times latches here: the
// estimate rises above every later budget, every later request is shed,
// and with nothing decoded the estimate never falls. The test counts
// requests and decodes, never the clock.
func TestChaosSlowDecodesDoNotLatch(t *testing.T) {
	model, factory := testModel(t)
	wrapped, _ := fault.Wrap(factory, fault.Plan{
		Seed: 1, Mix: map[fault.Kind]float64{fault.Slow: 1}, SlowFor: 2 * time.Millisecond,
	})
	svc := newService("chaos", model, "BP(30)+chaos", wrapped, serialChaosConfig())
	defer svc.Close()

	syndromes := sampleSyndromes(model, 65, 6)
	var res Result
	for i, syn := range syndromes {
		if err := svc.DecodeInto(context.Background(), &res, syn); err != nil {
			t.Fatalf("slow decode %d: %v", i, err)
		}
	}
	decoded := svc.met.decodeSeconds.Count()
	// On the only worker each request is dispatched after the one before
	// it has finished, so the decode count read after a call covers
	// every earlier dispatch.
	const maxRequests = 3200
	sent := 0
	for ; sent < maxRequests && svc.met.decodeSeconds.Count() == decoded; sent++ {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
		_ = svc.DecodeInto(ctx, &res, syndromes[sent%len(syndromes)]) // the decode count is the outcome
		cancel()
	}
	if svc.met.decodeSeconds.Count() == decoded {
		t.Fatalf("latched: none of %d short-budget requests after the slow decodes was decoded", sent)
	}
}

func TestChaosCloseRaceSoak(t *testing.T) {
	model, factory := testModel(t)
	syndromes := sampleSyndromes(model, 16, 7)
	base := runtime.NumGoroutine()
	for iter := 0; iter < 15; iter++ {
		svc := newService("chaos", model, "BP(30)", factory, Config{
			MaxBatch: 4, MaxWait: 50 * time.Microsecond, PoolSize: 2,
		})
		const clients, perClient = 8, 16
		var outcomes atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var res Result
				for i := 0; i < perClient; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
					err := svc.DecodeInto(ctx, &res, syndromes[(g+i)%len(syndromes)])
					cancel()
					// Every call must land on exactly one terminal
					// outcome; anything else is a state-machine bug.
					switch {
					case err == nil,
						errors.Is(err, ErrClosed),
						errors.Is(err, context.DeadlineExceeded),
						errors.Is(err, context.Canceled):
						outcomes.Add(1)
					default:
						t.Errorf("iter %d: unexpected outcome %v", iter, err)
					}
				}
			}(g)
		}
		// Close mid-flight at a different phase each iteration.
		time.Sleep(time.Duration(iter) * 100 * time.Microsecond)
		svc.Close()
		wg.Wait()
		if got := outcomes.Load(); got != clients*perClient {
			t.Fatalf("iter %d: %d outcomes for %d requests", iter, got, clients*perClient)
		}
	}
	waitGoroutines(t, base)
}
