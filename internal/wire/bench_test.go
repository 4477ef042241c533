package wire

import (
	"math/rand/v2"
	"testing"
)

// BenchmarkWireAppendDecode measures the request encode hot path:
// header + syndrome words into a reused buffer, sized for the standard
// serving model (72 detectors). cluster's TestRouterRelayAllocatesNothing
// holds it at 0 allocs/op.
func BenchmarkWireAppendDecode(b *testing.B) {
	syn := randVec(72, rand.New(rand.NewPCG(1, 2)))
	buf := AppendDecode(nil, 1, 0, syn) // reach steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendDecode(buf[:0], 1, uint64(i), syn)
	}
	_ = buf
}

// BenchmarkWireAppendDecodeTraced measures the telemetry-bearing
// request encode: the trace block must ride the same reused buffer as
// the plain frame (the <2% telemetry cost claim).
// TestClientPipelineAllocFree holds it at 0 allocs/op.
func BenchmarkWireAppendDecodeTraced(b *testing.B) {
	syn := randVec(72, rand.New(rand.NewPCG(1, 2)))
	tc := TraceContext{TraceID: 7, Sampled: true}
	buf := AppendDecodeTraced(nil, 1, 0, syn, tc) // reach steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.TraceID = uint64(i)
		buf = AppendDecodeTraced(buf[:0], 1, uint64(i), syn, tc)
	}
	_ = buf
}

// BenchmarkWireParseResult measures the response decode hot path:
// header parse + result parse into pre-sized vectors, sized for the
// standard serving model (216 mechanisms, 12 observables). cluster's
// TestRouterRelayAllocatesNothing holds it at 0 allocs/op.
func BenchmarkWireParseResult(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	res := Result{
		Status:      StatusOK,
		Satisfied:   true,
		BPIters:     9,
		QueueWaitNs: 1000,
		DecodeNs:    50000,
		CopyOutNs:   800,
		Correction:  randVec(216, rng),
		Observables: randVec(12, rng),
	}
	buf := AppendResult(nil, 0, 1, 42, &res)
	var out Result
	SizeResult(&out, 216, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := ParseHeader(buf)
		if err != nil {
			b.Fatal(err)
		}
		if err := ParseResultInto(&out, buf[HeaderSize:HeaderSize+h.PayloadLen]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireParseResultTimed measures the telemetry-bearing
// response parse: result body plus server-timing block into pre-sized
// destinations. TestClientPipelineAllocFree holds it at 0 allocs/op.
func BenchmarkWireParseResultTimed(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	res := Result{
		Status:      StatusOK,
		Satisfied:   true,
		BPIters:     9,
		QueueWaitNs: 1000,
		DecodeNs:    50000,
		CopyOutNs:   800,
		Correction:  randVec(216, rng),
		Observables: randVec(12, rng),
	}
	tm := ServerTiming{
		WorkerID:    3,
		QueueWaitNs: 1000, BatchAssembleNs: 200, DecodeNs: 50000, CopyOutNs: 800,
		ServerTick: 1 << 40,
	}
	buf := AppendResultTimed(nil, 0, 1, 42, &res, &tm)
	var out Result
	SizeResult(&out, 216, 12)
	var otm ServerTiming
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := ParseHeader(buf)
		if err != nil {
			b.Fatal(err)
		}
		timed, err := ParseResultTimedInto(&out, &otm, h.Flags, buf[HeaderSize:HeaderSize+h.PayloadLen])
		if err != nil {
			b.Fatal(err)
		}
		if !timed {
			b.Fatal("timing block not parsed")
		}
	}
}
