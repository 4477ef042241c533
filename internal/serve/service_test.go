package serve

import (
	"context"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vegapunk/internal/code"
	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// testModel builds a small, fast model: the [[72,12,6]] BB code under
// code-capacity noise, decoded with plain BP.
func testModel(t testing.TB) (*dem.Model, core.Factory) {
	t.Helper()
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CodeCapacity(c, 0.01)
	return model, func() core.Decoder { return core.NewBP(model, 30) }
}

// sampleSyndromes draws n syndromes from the model, reproducibly.
func sampleSyndromes(model *dem.Model, n int, seed uint64) []gf2.Vec {
	rng := rand.New(rand.NewPCG(seed, 7))
	out := make([]gf2.Vec, n)
	e := gf2.NewVec(model.NumMech())
	for i := range out {
		model.SampleInto(e, rng)
		out[i] = model.Syndrome(e)
	}
	return out
}

// TestConcurrentPoolMatchesSerial is the pool-correctness keystone:
// many goroutines hammering one service must produce bit-identical
// corrections to a single decoder run serially over the same
// syndromes. Run under -race this also proves the worker-owned decoders
// and the copy-out discipline have no data races.
func TestConcurrentPoolMatchesSerial(t *testing.T) {
	model, factory := testModel(t)
	const nSyn = 160
	syndromes := sampleSyndromes(model, nSyn, 42)

	// Serial reference: one decoder instance, results cloned (they are
	// owned-until-next-Decode).
	ref := factory()
	want := make([]gf2.Vec, nSyn)
	for i, s := range syndromes {
		est, _ := ref.Decode(s)
		want[i] = est.Clone()
	}

	svc := newService("test", model, "BP(30)", factory, Config{
		MaxBatch: 8, MaxWait: 50 * time.Microsecond, PoolSize: 4,
	})
	defer svc.Close()

	const clients = 8
	got := make([]gf2.Vec, nSyn)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var res Result
			for i := c; i < nSyn; i += clients {
				if err := svc.DecodeInto(context.Background(), &res, syndromes[i]); err != nil {
					t.Errorf("decode %d: %v", i, err)
					return
				}
				got[i] = res.Correction.Clone()
			}
		}(c)
	}
	wg.Wait()

	for i := range want {
		if got[i].Len() == 0 {
			t.Fatalf("syndrome %d never decoded", i)
		}
		if !got[i].Equal(want[i]) {
			t.Fatalf("syndrome %d: pooled correction differs from serial reference", i)
		}
	}
	if created := svc.Pool().Misses(); created > 4 {
		t.Fatalf("pool constructed %d decoders, bound is 4", created)
	}
	if svc.met.requests.Load() != nSyn {
		t.Fatalf("requests counter = %d, want %d", svc.met.requests.Load(), nSyn)
	}
	if svc.met.queueDepth.Load() != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", svc.met.queueDepth.Load())
	}
}

// pairGate holds the first Decode that enters until a second one is in
// flight on another instance, then stays open: passing it proves two
// workers decoded at the same time.
type pairGate struct {
	core.Decoder
	entered *atomic.Int32
	open    chan struct{}
}

func (g pairGate) Decode(s gf2.Vec) (gf2.Vec, core.Stats) {
	if g.entered.Add(1) == 2 {
		close(g.open)
	}
	<-g.open
	return g.Decoder.Decode(s)
}

// TestBatchDispatchMatchesSerial is the dispatch keystone, and the
// dispatch is the same for every decoder. Row "saturated": with the one
// worker busy the backlog coalesces into multi-request micro-batches.
// Row "scalar": single requests reaching an idle pool are batches of
// one, one per worker — the pairGate deadlocks into the hang watchdog if
// the batcher ever ships a batch past an idle worker. Either way the
// corrections must stay bit-identical to one decoder run serially over
// the same syndromes. Run under -race this also proves the worker-owned
// buffers and the per-lane copy-out boundary have no data races.
func TestBatchDispatchMatchesSerial(t *testing.T) {
	model, factory := testModel(t)
	const nSyn = 160
	syndromes := sampleSyndromes(model, nSyn, 42)

	ref := factory()
	want := make([]gf2.Vec, nSyn)
	for i, s := range syndromes {
		est, _ := ref.Decode(s)
		want[i] = est.Clone()
	}

	gate := pairGate{entered: new(atomic.Int32), open: make(chan struct{})}
	for _, tc := range []struct {
		name     string
		factory  core.Factory
		poolSize int
	}{
		{"saturated", factory, 1},
		{"scalar", func() core.Decoder {
			g := gate
			g.Decoder = factory()
			return g
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := newService("test", model, "BP(30)", tc.factory, Config{
				MaxBatch: 64, MaxWait: 50 * time.Microsecond, PoolSize: tc.poolSize,
			})
			defer svc.Close()

			const clients = 8
			got := make([]gf2.Vec, nSyn)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					lo, hi := c*nSyn/clients, (c+1)*nSyn/clients
					results := make([]Result, hi-lo)
					if err := svc.DecodeBatchInto(context.Background(), results, syndromes[lo:hi]); err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					for i := range results {
						got[lo+i] = results[i].Correction.Clone()
					}
				}(c)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("syndrome %d: served correction differs from serial reference", i)
				}
			}
			if svc.met.batchSize.Sum() <= float64(svc.met.batchSize.Count()) {
				t.Fatal("no multi-request micro-batch formed under saturation")
			}
			if svc.met.queueDepth.Load() != 0 {
				t.Fatalf("queue depth = %d after drain, want 0", svc.met.queueDepth.Load())
			}
		})
	}
}

func TestDecodeBatchInto(t *testing.T) {
	model, factory := testModel(t)
	svc := newService("test", model, "BP(30)", factory, Config{MaxBatch: 4})
	defer svc.Close()

	syndromes := sampleSyndromes(model, 10, 1)
	results := make([]Result, len(syndromes))
	if err := svc.DecodeBatchInto(context.Background(), results, syndromes); err != nil {
		t.Fatal(err)
	}
	mech := model.Mech
	syn := gf2.NewVec(model.NumDet)
	for i, res := range results {
		mech.MulVecInto(syn, res.Correction)
		if sat := syn.Equal(syndromes[i]); sat != res.Satisfied {
			t.Fatalf("result %d: Satisfied=%v but syndrome check says %v", i, res.Satisfied, sat)
		}
	}
	if svc.met.batchSize.Count() == 0 {
		t.Fatal("no batches recorded")
	}
}

func TestSubmitRejectsWrongLength(t *testing.T) {
	model, factory := testModel(t)
	svc := newService("test", model, "BP(30)", factory, Config{})
	defer svc.Close()
	var res Result
	if err := svc.DecodeInto(context.Background(), &res, gf2.NewVec(model.NumDet+1)); err == nil {
		t.Fatal("wrong-length syndrome accepted")
	}
}

func TestServiceCloseDrains(t *testing.T) {
	model, factory := testModel(t)
	svc := newService("test", model, "BP(30)", factory, Config{
		MaxBatch: 64, MaxWait: 50 * time.Millisecond, // long wait: Close must flush the partial batch
	})
	syndromes := sampleSyndromes(model, 8, 3)

	// Enqueue synchronously (the queue holds MaxBatch requests), so
	// every request is admitted before Close starts the drain.
	ctx := context.Background()
	reqs := make([]*request, len(syndromes))
	for i, syn := range syndromes {
		req, err := svc.submitTraced(ctx, syn, wireTrace{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		reqs[i] = req
	}
	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	for i, req := range reqs {
		var res Result
		if err := svc.wait(ctx, req, &res); err != nil {
			t.Fatalf("request %d lost during drain: %v", i, err)
		}
	}
	<-closed
	var res Result
	if err := svc.DecodeInto(context.Background(), &res, syndromes[0]); err != ErrClosed {
		t.Fatalf("decode after Close: err = %v, want ErrClosed", err)
	}
}

func TestDecodeContextTimeout(t *testing.T) {
	model, _ := testModel(t)
	gate := make(chan struct{})
	factory := func() core.Decoder { return &gatedDecoder{model: model, gate: gate} }
	svc := newService("test", model, "gated", factory, Config{MaxBatch: 1, PoolSize: 1})
	defer func() {
		close(gate)
		svc.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	var res Result
	err := svc.DecodeInto(ctx, &res, gf2.NewVec(model.NumDet))
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestHeldBatchLeavesWhenAWorkerFrees saturates a one-worker service,
// queues request B while the worker is inside A's decode, and releases
// A: the batcher, holding B to grow a batch, must dispatch it as soon as
// the worker goes idle rather than at the MaxWait deadline (an hour).
func TestHeldBatchLeavesWhenAWorkerFrees(t *testing.T) {
	model, _ := testModel(t)
	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	factory := func() core.Decoder { return &gatedDecoder{model: model, gate: gate, entered: entered} }
	svc := newService("test", model, "gated", factory, Config{PoolSize: 1, MaxWait: time.Hour})
	defer svc.Close()
	ctx := context.Background()
	syn := gf2.NewVec(model.NumDet)

	a, err := svc.submitTraced(ctx, syn, wireTrace{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the only worker is busy: load == PoolSize
	b, err := svc.submitTraced(ctx, syn, wireTrace{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !batcherHolding(); i++ {
		if i == 10000 {
			t.Fatal("the batcher never blocked holding B")
		}
		runtime.Gosched()
	}
	close(gate)
	var res Result
	if err := svc.wait(ctx, a, &res); err != nil {
		t.Fatalf("A: %v", err)
	}
	bctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := svc.wait(bctx, b, &res); err != nil {
		t.Fatalf("B, held to grow a batch, was not dispatched when the worker went idle: %v", err)
	}
}

// batcherHolding reports whether a batcher is blocked in its fill loop,
// holding a batch to grow it: the only select it blocks in.
func batcherHolding() bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.HasPrefix(g, "goroutine ") && strings.Contains(g, " [select") &&
			strings.Contains(g, "vegapunk/internal/serve.(*Service).batcher(") {
			return true
		}
	}
	return false
}

// TestUntracedServiceAllocatesSmallRings bounds what newService
// allocates without Config.Tracer: the batcher and every worker register
// a span ring with the disabled stand-in tracer, which nothing can write,
// so each gets the minimum ring instead of a 32 KiB one.
func TestUntracedServiceAllocatesSmallRings(t *testing.T) {
	model, factory := testModel(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	svc := newService("test", model, "BP(30)", factory, Config{PoolSize: 8})
	svc.Close() // every goroutine has built its state once Close returns
	runtime.ReadMemStats(&after)
	const limit = 128 << 10
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("newService with 8 workers and no tracer allocated %d B", n)
	if n > limit {
		t.Errorf("newService with 8 workers and no tracer allocated %d B, want <= %d", n, limit)
	}
}

// gatedDecoder blocks inside Decode until its gate closes — a stand-in
// for a slow decoder in timeout and drain tests. A non-nil entered
// receives one value each time a decode reaches the gate.
type gatedDecoder struct {
	model   *dem.Model
	gate    chan struct{}
	entered chan struct{}
	out     gf2.Vec
}

func (g *gatedDecoder) Name() string { return "gated" }

func (g *gatedDecoder) Decode(s gf2.Vec) (gf2.Vec, core.Stats) {
	if g.entered != nil {
		g.entered <- struct{}{}
	}
	<-g.gate
	if g.out.Len() == 0 {
		g.out = gf2.NewVec(g.model.NumMech())
	}
	return g.out, core.Stats{}
}
