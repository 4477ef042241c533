package serve

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// BenchmarkServiceDecode measures the full steady-state serving hot
// path — submit, micro-batch dispatch, pooled decode, copy-out, collect
// — excluding the JSON layer. TestDecodeIntoAllocatesNothing holds it at
// 0 allocs/op on top of the decoder, which is itself allocation-free.
func BenchmarkServiceDecode(b *testing.B) {
	decodeOne := serviceDecode(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeOne()
	}
}

// TestDecodeIntoAllocatesNothing pins BenchmarkServiceDecode's
// 0 allocs/op as a test: one DecodeInto at MaxBatch 1 allocates nothing
// in steady state, on the caller's side or on the service's goroutines.
func TestDecodeIntoAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, serviceDecode(t)); n != 0 {
		t.Errorf("DecodeInto allocates %v per call", n)
	}
}

// serviceDecode returns one DecodeInto, cycling through 64 syndromes,
// against a warm MaxBatch 1 service: every request is its own dispatch.
func serviceDecode(tb testing.TB) (decodeOne func()) {
	model, factory := testModel(tb)
	svc := newService("bench", model, "BP(30)", factory, Config{
		MaxBatch: 1, PoolSize: 2,
	})
	tb.Cleanup(svc.Close)
	syndromes := sampleSyndromes(model, 64, 5)
	ctx := context.Background()
	var res Result
	i := 0
	decodeOne = func() {
		if err := svc.DecodeInto(ctx, &res, syndromes[i&63]); err != nil {
			tb.Fatal(err)
		}
		i++
	}
	// Warm the request/batch freelists and the result buffers.
	for range syndromes {
		decodeOne()
	}
	return decodeOne
}

// BenchmarkServiceDecodeBatch64 measures micro-batched dispatch
// end-to-end: each op is one DecodeBatchInto of 64 syndromes, all
// submitted before any result is collected, so with the one worker busy
// the queue coalesces into micro-batches of up to MaxBatch = 64.
// BenchmarkServiceDecodeBatch64Serial is the same workload at MaxBatch 1
// — one dispatch per syndrome — so the ratio of the two is the dispatch
// amortisation micro-batching buys. Both must report 0 allocs/op.
// Per-op cost covers all 64 syndromes.
func BenchmarkServiceDecodeBatch64(b *testing.B) { benchServiceBatch64(b, 64) }

// BenchmarkServiceDecodeBatch64Serial is the one-dispatch-per-syndrome
// baseline of BenchmarkServiceDecodeBatch64 (see there).
func BenchmarkServiceDecodeBatch64Serial(b *testing.B) { benchServiceBatch64(b, 1) }

func benchServiceBatch64(b *testing.B, maxBatch int) {
	decodeAll := serviceBatch64(b, maxBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeAll()
	}
}

// TestDecodeBatchIntoAllocatesNothing pins the benchmarks' 0 allocs/op
// as a test: a 64-syndrome request allocates nothing in steady state,
// the request list included, whatever MaxBatch is — the call keeps all
// 64 requests live until it collects, so the request freelist must hold
// them all even when the queue holds one.
func TestDecodeBatchIntoAllocatesNothing(t *testing.T) {
	for _, maxBatch := range []int{1, 64} {
		t.Run(fmt.Sprintf("MaxBatch=%d", maxBatch), func(t *testing.T) {
			decodeAll := serviceBatch64(t, maxBatch)
			if n := testing.AllocsPerRun(50, decodeAll); n != 0 {
				t.Errorf("DecodeBatchInto of 64 syndromes allocates %v per call", n)
			}
		})
	}
}

// serviceBatch64 returns one 64-syndrome DecodeBatchInto against a warm
// service. One worker on one decoder: the comparison isolates dispatch
// amortisation from multi-core fan-out, and the busy worker keeps the
// batcher saturated so micro-batches fill to maxBatch.
func serviceBatch64(tb testing.TB, maxBatch int) (decodeAll func()) {
	model, factory := testModel(tb)
	svc := newService("bench", model, "BP(30)", factory, Config{
		MaxBatch: maxBatch, MaxWait: 20 * time.Microsecond, PoolSize: 1,
	})
	tb.Cleanup(svc.Close)
	syndromes := sampleSyndromes(model, 64, 5)
	results := make([]Result, len(syndromes)) // reused so the pool-boundary copy-out stays allocation-free
	ctx := context.Background()
	decodeAll = func() {
		if err := svc.DecodeBatchInto(ctx, results, syndromes); err != nil {
			tb.Fatal(err)
		}
	}
	// Warm the request/batch freelists and the result buffers.
	for i := 0; i < 4; i++ {
		decodeAll()
	}
	return decodeAll
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
