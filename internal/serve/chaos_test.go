package serve

// The chaos suite drives the resilience machinery — worker quarantine,
// hang watchdog, circuit breaker, deadline shedding and the degradation
// ladder — with deterministic fault schedules from internal/faultinject.
// Run with -race (CI does): every scenario also doubles as a
// concurrency soak over the request state machine.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vegapunk/internal/faultinject"
	"vegapunk/internal/obs"
)

// waitGoroutines polls until the goroutine count returns to the
// baseline, failing with a full stack dump if it never does — the
// leak check for abandoned runners and drained services.
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
		PoolSize:         1,
		BreakerThreshold: -1,
		HangTimeout:      time.Second,
		MaxDegradeTier:   -1,
	}
}

func TestChaosPanicQuarantineAndRecovery(t *testing.T) {
	model, factory := testModel(t)
	wrapped, counters := faultinject.Wrap(factory, faultinject.Plan{
		Seed:   1,
		Script: []faultinject.Kind{faultinject.KindNone, faultinject.KindPanic},
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
	if counters.Panics.Load() != 1 {
		t.Errorf("injected panics = %d, want 1", counters.Panics.Load())
	}
	if got := svc.met.decoderPanics.Load(); got != 1 {
		t.Errorf("decoder_panics_total = %d, want 1", got)
	}
	if got := svc.Pool().Poisoned(); got != 1 {
		t.Errorf("pool poisoned = %d, want 1", got)
	}
}

func TestChaosWrongLengthQuarantine(t *testing.T) {
	model, factory := testModel(t)
	wrapped, _ := faultinject.Wrap(factory, faultinject.Plan{
		Seed:   1,
		Script: []faultinject.Kind{faultinject.KindWrongLen},
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
	if got := svc.Pool().Poisoned(); got != 1 {
		t.Errorf("pool poisoned = %d, want 1", got)
	}
}

func TestChaosHangWatchdog(t *testing.T) {
	model, factory := testModel(t)
	release := make(chan struct{})
	wrapped, _ := faultinject.Wrap(factory, faultinject.Plan{
		Seed:         1,
		Script:       []faultinject.Kind{faultinject.KindStall},
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
	// Unstick the hung decode: its abandoned runner must drain and
	// exit without leaking a goroutine.
	close(release)
	svc.Close()
	waitGoroutines(t, base)
}

func TestChaosBreakerTripsAndRecovers(t *testing.T) {
	model, factory := testModel(t)
	wrapped, _ := faultinject.Wrap(factory, faultinject.Plan{
		Seed:   1,
		Script: []faultinject.Kind{faultinject.KindPanic, faultinject.KindPanic, faultinject.KindPanic},
	})
	cfg := serialChaosConfig()
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = 50 * time.Millisecond
	svc := newService("chaos", model, "BP(30)+chaos", wrapped, cfg)
	defer svc.Close()

	syndromes := sampleSyndromes(model, 6, 4)
	var res Result
	for i := 0; i < 3; i++ {
		if err := svc.DecodeInto(context.Background(), &res, syndromes[i]); !errors.Is(err, ErrDecoderFault) {
			t.Fatalf("decode %d: %v, want ErrDecoderFault", i, err)
		}
	}
	// Three consecutive quarantines tripped the circuit: submissions
	// fast-fail without touching the queue.
	if err := svc.DecodeInto(context.Background(), &res, syndromes[3]); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-circuit decode returned %v, want ErrCircuitOpen", err)
	}
	if got := svc.breaker.trips.Load(); got != 1 {
		t.Errorf("breaker trips = %d, want 1", got)
	}
	if got := svc.breaker.rejected.Load(); got == 0 {
		t.Error("breaker rejected nothing while open")
	}
	// After the cooldown the half-open probe goes through; the fault
	// schedule is exhausted, so it succeeds and closes the circuit.
	time.Sleep(cfg.BreakerCooldown + 20*time.Millisecond)
	for i := 4; i < 6; i++ {
		if err := svc.DecodeInto(context.Background(), &res, syndromes[i]); err != nil {
			t.Fatalf("decode %d after cooldown: %v", i, err)
		}
	}
	if svc.breaker.open(obs.Tick()) {
		t.Error("breaker still open after a successful probe")
	}
}

func TestChaosDeadlineShedding(t *testing.T) {
	model, factory := testModel(t)
	wrapped, _ := faultinject.Wrap(factory, faultinject.Plan{
		Seed: 1, PSlow: 1, SlowFor: 2 * time.Millisecond,
	})
	svc := newService("chaos", model, "BP(30)+chaos", wrapped, serialChaosConfig())
	defer svc.Close()

	// Prime the p99 estimate: the cache refreshes every p99RefreshEvery
	// successful decodes, and shedding stays off until it is non-zero.
	syndromes := sampleSyndromes(model, p99RefreshEvery, 5)
	var res Result
	for i, syn := range syndromes {
		if err := svc.DecodeInto(context.Background(), &res, syn); err != nil {
			t.Fatalf("prime decode %d: %v", i, err)
		}
	}
	if svc.p99DecodeNs.Load() < int64(time.Millisecond) {
		t.Fatalf("p99 cache = %dns after %d slow decodes", svc.p99DecodeNs.Load(), p99RefreshEvery)
	}
	// A 1ms budget cannot cover a ~2.5ms p99: the worker sheds at
	// dispatch instead of decoding into a blown deadline.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := svc.DecodeInto(ctx, &res, syndromes[0]); !errors.Is(err, ErrDeadlineBudget) {
		t.Fatalf("tight-deadline decode returned %v, want ErrDeadlineBudget", err)
	}
	if got := svc.met.shed.Load(); got != 1 {
		t.Errorf("shed_total = %d, want 1", got)
	}
	// A generous budget still decodes.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := svc.DecodeInto(ctx2, &res, syndromes[0]); err != nil {
		t.Fatalf("generous-deadline decode: %v", err)
	}
}

func TestChaosDegradationLadder(t *testing.T) {
	model, factory := testModel(t)
	wrapped, _ := faultinject.Wrap(factory, faultinject.Plan{
		Seed: 1, PSlow: 1, SlowFor: time.Millisecond,
	})
	svc := newService("chaos", model, "BP(30)+chaos", wrapped, Config{
		MaxBatch: 4, MaxWait: 50 * time.Microsecond,
		PoolSize:         1,
		DegradeQueueHigh: 2, DegradeHold: 20 * time.Millisecond,
		BreakerThreshold: -1,
	})
	defer svc.Close()

	// Storm: 32 concurrent slow requests against one worker drive the
	// queue past DegradeQueueHigh, stepping the ladder down.
	syndromes := sampleSyndromes(model, 32, 6)
	var wg sync.WaitGroup
	var degraded atomic.Int64
	for i := range syndromes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var res Result
			if err := svc.DecodeInto(context.Background(), &res, syndromes[i]); err != nil {
				t.Errorf("storm decode %d: %v", i, err)
				return
			}
			if res.Tier > 0 {
				degraded.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if degraded.Load() == 0 {
		t.Error("no request decoded at a degraded tier under saturation")
	}
	if got := svc.met.degraded.Load(); got == 0 {
		t.Error("degraded_total did not count the degraded decodes")
	}

	// Relief: with the queue idle, trickled requests step the ladder
	// back to full once the hold time passes.
	deadline := time.Now().Add(5 * time.Second)
	var res Result
	for svc.Tier() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ladder stuck at tier %v after relief", svc.Tier())
		}
		time.Sleep(10 * time.Millisecond)
		if err := svc.DecodeInto(context.Background(), &res, syndromes[0]); err != nil {
			t.Fatalf("relief decode: %v", err)
		}
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

func TestChaosSkewedProbeTraceClamp(t *testing.T) {
	model, factory := testModel(t)
	script := make([]faultinject.Kind, 8)
	for i := range script {
		script[i] = faultinject.KindSkew
	}
	wrapped, counters := faultinject.Wrap(factory, faultinject.Plan{
		Seed: 1, Script: script, SkewNs: -int64(time.Millisecond),
	})
	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	cfg := serialChaosConfig()
	cfg.Tracer = tracer
	svc := newService("chaos", model, "BP(30)+chaos", wrapped, cfg)
	defer svc.Close()

	syndromes := sampleSyndromes(model, 8, 8)
	var res Result
	for i, syn := range syndromes {
		if err := svc.DecodeInto(context.Background(), &res, syn); err != nil {
			t.Fatalf("skewed decode %d: %v", i, err)
		}
	}
	if counters.Skews.Load() != 8 {
		t.Fatalf("injected skews = %d, want 8", counters.Skews.Load())
	}
	var buf bytes.Buffer
	if err := tracer.WriteTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("skewed decodes produced no trace spans")
	}
	for _, ev := range tf.TraceEvents {
		if ev.Dur < 0 {
			t.Errorf("span %s has negative duration %v after clamp", ev.Name, ev.Dur)
		}
	}
}
