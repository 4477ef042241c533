package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"vegapunk/internal/core"
	"vegapunk/internal/fault"
	"vegapunk/internal/gf2"
)

// ownedDecoder is one numbered decoder instance that panics if two
// goroutines ever decode on it at once and logs which instance served
// each call.
type ownedDecoder struct {
	core.Decoder
	id   int
	busy atomic.Bool
	log  *servedLog
}

type servedLog struct {
	mu  sync.Mutex
	ids []int
}

func (d *ownedDecoder) Decode(s gf2.Vec) (gf2.Vec, core.Stats) {
	if !d.busy.CompareAndSwap(false, true) {
		panic("ownedDecoder used concurrently")
	}
	defer d.busy.Store(false)
	d.log.mu.Lock()
	d.log.ids = append(d.log.ids, d.id)
	d.log.mu.Unlock()
	return d.Decoder.Decode(s)
}

// ownedFixture is a service over numbered ownedDecoder instances wrapping
// the BP test decoder under a fault script; built counts the
// factory's runs.
type ownedFixture struct {
	svc       *Service
	syndromes []gf2.Vec
	built     atomic.Int64
	log       servedLog
}

func newOwnedFixture(t *testing.T, cfg Config, script []fault.Kind) *ownedFixture {
	t.Helper()
	model, factory := testModel(t)
	wrapped, _ := fault.Wrap(factory, fault.Plan{Seed: 1, Script: script})
	f := &ownedFixture{syndromes: sampleSyndromes(model, 16, 14)}
	f.svc = newService("chaos", model, "BP(30)+owned", func() core.Decoder {
		return &ownedDecoder{Decoder: wrapped(), id: int(f.built.Add(1)), log: &f.log}
	}, cfg)
	t.Cleanup(f.svc.Close)
	return f
}

// decode runs n serial DecodeInto calls that must all succeed.
func (f *ownedFixture) decode(t *testing.T, n int) {
	t.Helper()
	var res Result
	for i := 0; i < n; i++ {
		if err := f.svc.DecodeInto(context.Background(), &res, f.syndromes[i%len(f.syndromes)]); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
	}
}

// storm runs clients goroutines of perClient DecodeInto calls each.
func (f *ownedFixture) storm(t *testing.T, clients, perClient int) {
	t.Helper()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var res Result
			for i := 0; i < perClient; i++ {
				if err := f.svc.DecodeInto(context.Background(), &res, f.syndromes[(c+i)%len(f.syndromes)]); err != nil {
					t.Errorf("client %d decode %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// panicOnce runs the one decode the script makes panic and returns the
// id of the instance it poisoned.
func (f *ownedFixture) panicOnce(t *testing.T) int {
	t.Helper()
	var res Result
	if err := f.svc.DecodeInto(context.Background(), &res, f.syndromes[0]); !errors.Is(err, ErrDecoderFault) {
		t.Fatalf("scripted panic returned %v, want ErrDecoderFault", err)
	}
	ids := f.served()
	return ids[len(ids)-1]
}

// balanced checks Misses() against the factory count and every
// dispatch against exactly one hit or miss.
func (f *ownedFixture) balanced(t *testing.T, when string) {
	t.Helper()
	pool := f.svc.Pool()
	if pool.Misses() != uint64(f.built.Load()) {
		t.Errorf("%s: Misses() = %d, factory ran %d times", when, pool.Misses(), f.built.Load())
	}
	if got, want := pool.Hits()+pool.Misses(), f.svc.met.batchSize.Count(); got != want {
		t.Errorf("%s: hits+misses = %d, batch_size_count = %d", when, got, want)
	}
}

// served returns the id of the instance that served each call, in order.
func (f *ownedFixture) served() []int {
	f.log.mu.Lock()
	defer f.log.mu.Unlock()
	return append([]int(nil), f.log.ids...)
}

// quarantines sums the quarantine-cause counters: every quarantined
// instance bumps exactly one of them.
func quarantines(s *Service) uint64 {
	return s.met.decoderPanics.Load() + s.met.decoderHangs.Load() + s.met.decoderBadResults.Load()
}

// neverAfter fails if instance id served any call from index from on.
func neverAfter(t *testing.T, ids []int, from, id int) {
	t.Helper()
	for i, got := range ids[from:] {
		if got == id {
			t.Fatalf("poisoned instance %d decoded call %d after its quarantine", id, from+i)
		}
	}
}

// TestPoolBoundedAndExclusive: 16 clients on 3 workers build no instance
// before the first dispatch, at most one per worker after it, and never
// decode on one instance from two goroutines at once.
func TestPoolBoundedAndExclusive(t *testing.T) {
	const size = 3
	f := newOwnedFixture(t, Config{PoolSize: size}, nil)
	if f.svc.Pool().Misses() != 0 || f.built.Load() != 0 {
		t.Fatal("service constructed decoders eagerly")
	}
	if f.svc.Pool().Size() != size {
		t.Fatalf("Size() = %d, want %d", f.svc.Pool().Size(), size)
	}
	f.storm(t, 16, 50)
	if built := f.built.Load(); built > size {
		t.Fatalf("factory ran %d times, pool bound is %d", built, size)
	}
	f.balanced(t, "after the storm")
	if got := len(f.served()); got != 16*50 {
		t.Fatalf("decoders served %d calls, want %d", got, 16*50)
	}
}

// TestPoolPoisonReplaces: at bound 1, a panic poisons the only instance,
// the worker builds a replacement on its next dispatch, and the poisoned
// instance never decodes again.
func TestPoolPoisonReplaces(t *testing.T) {
	f := newOwnedFixture(t, serialChaosConfig(),
		[]fault.Kind{fault.Pass, fault.Crash})
	pool := f.svc.Pool()
	f.decode(t, 1)
	if pool.Misses() != 1 || quarantines(f.svc) != 0 {
		t.Fatalf("misses=%d quarantines=%d, want 1/0", pool.Misses(), quarantines(f.svc))
	}
	poisoned := f.panicOnce(t)
	if got := quarantines(f.svc); got != 1 {
		t.Fatalf("quarantines = %d, want 1", got)
	}
	f.decode(t, 4)
	if pool.Misses() != 2 {
		t.Fatalf("Misses() = %d, want 2", pool.Misses())
	}
	f.balanced(t, "after the replacement")
	neverAfter(t, f.served(), 2, poisoned)
}
