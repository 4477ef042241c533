package serve

import (
	"context"
	"testing"
	"time"

	"vegapunk/internal/core"
)

// BenchmarkPoolAcquireRelease measures the pool boundary itself.
// Must stay at 0 allocs/op.
func BenchmarkPoolAcquireRelease(b *testing.B) {
	model, factory := testModel(b)
	_ = model
	p := NewPool(factory, 4)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := p.Acquire(ctx)
		if err != nil {
			b.Fatal(err)
		}
		p.Release(d)
	}
}

// BenchmarkServiceDecode measures the full steady-state serving hot
// path — submit, micro-batch dispatch, pooled decode, copy-out, collect
// — excluding the JSON layer. The target is 0 allocs/op on top of the
// decoder itself (which is itself allocation-free, see
// internal/README.md).
func BenchmarkServiceDecode(b *testing.B) {
	model, factory := testModel(b)
	svc := newService("bench", model, "BP(30)", factory, Config{
		MaxBatch: 1, PoolSize: 2,
	})
	defer svc.Close()
	syndromes := sampleSyndromes(model, 64, 5)
	ctx := context.Background()
	var res Result
	// Warm the request/batch freelists and the result buffers.
	for _, s := range syndromes {
		if err := svc.DecodeInto(ctx, &res, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.DecodeInto(ctx, &res, syndromes[i&63]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceDecodeBatch64 measures batched dispatch end-to-end at
// batch size 64: each op submits 64 syndromes before collecting any
// result (the DecodeBatchInto shape, inlined via submitTraced/wait so the
// steady state stays at 0 allocs/op), so the queue coalesces into
// micro-batches the service decodes through single DecodeBatch calls.
// BenchmarkServiceDecodeBatch64Serial is the identical workload with the
// BatchDecoder capability hidden (scalarOnly) — exactly the path scalar
// decoders take in production (fill limit 1, one request per dispatch),
// and the baseline the ≥2× acceptance bar is measured against. Per-op
// cost covers all 64 syndromes.
func BenchmarkServiceDecodeBatch64(b *testing.B) {
	benchServiceBatch64(b, false)
}

// BenchmarkServiceDecodeBatch64Serial is the serial-dispatch baseline
// of BenchmarkServiceDecodeBatch64 (see there).
func BenchmarkServiceDecodeBatch64Serial(b *testing.B) {
	benchServiceBatch64(b, true)
}

func benchServiceBatch64(b *testing.B, hideBatch bool) {
	model, factory := testModel(b)
	if hideBatch {
		capable := factory
		factory = func() core.Decoder { return scalarOnly{capable()} }
	}
	// One worker on one decoder in both configs: the comparison isolates
	// dispatch amortization (and the batched kernel) from multi-core
	// fan-out, and keeps the busy worker saturating the batcher so
	// micro-batches actually fill to MaxBatch.
	svc := newService("bench", model, "BP(30)", factory, Config{
		MaxBatch: 64, MaxWait: 20 * time.Microsecond, PoolSize: 1,
	})
	defer svc.Close()
	syndromes := sampleSyndromes(model, 64, 5)
	reqs := make([]*request, len(syndromes))
	ctx := context.Background()
	var res Result // reused so the pool-boundary copy-out stays allocation-free
	decodeAll := func() {
		for j, s := range syndromes {
			req, err := svc.submitTraced(ctx, s, wireTrace{})
			if err != nil {
				b.Fatal(err)
			}
			reqs[j] = req
		}
		for _, req := range reqs {
			if err := svc.wait(ctx, req, &res); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Warm the request/batch freelists and the result buffers.
	for i := 0; i < 4; i++ {
		decodeAll()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeAll()
	}
}

// BenchmarkServiceDecodeParallel exercises batch dispatch under
// concurrent clients: multiple submitters fill micro-batches that fan
// out across the pool.
func BenchmarkServiceDecodeParallel(b *testing.B) {
	model, factory := testModel(b)
	svc := newService("bench", model, "BP(30)", factory, Config{
		MaxBatch: 8, MaxWait: 20 * time.Microsecond,
	})
	defer svc.Close()
	syndromes := sampleSyndromes(model, 64, 5)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var res Result
		i := 0
		for pb.Next() {
			if err := svc.DecodeInto(ctx, &res, syndromes[i&63]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
