package wire

import (
	"errors"
	"testing"

	"vegapunk/internal/gf2"
)

func testSyndrome(n int) gf2.Vec {
	syn := gf2.NewVec(n)
	syn.Set(0, true)
	syn.Set(n/2, true)
	syn.Set(n-1, true)
	return syn
}

// TestTracedDecodeRoundTrip: the traced request frame must carry the
// syndrome and trace context bit-identically, and the untraced parser
// must reject the extended payload (the block is strictly flag-gated).
func TestTracedDecodeRoundTrip(t *testing.T) {
	syn := testSyndrome(72)
	tc := TraceContext{TraceID: 0xDEADBEEFCAFE, Sampled: true}
	buf := AppendDecodeTraced(nil, 3, 99, syn, tc)

	h, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Op != OpDecode || h.Flags&FlagTelemetry == 0 {
		t.Fatalf("traced decode header: %+v", h)
	}
	got := gf2.NewVec(72)
	back, err := ParseDecodeTracedInto(got, h.Flags, buf[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if back != tc {
		t.Fatalf("trace context drift: %+v != %+v", back, tc)
	}
	if !got.Equal(syn) {
		t.Fatal("syndrome corrupted by trace block")
	}

	// Parsed without FlagTelemetry, the block must not be silently swallowed.
	if _, err := ParseDecodeTracedInto(got, 0, buf[HeaderSize:]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("plain parse of traced frame: %v, want ErrTruncated", err)
	}
	// The traced parser on a plain frame degrades to a zero context.
	plain := AppendDecode(nil, 3, 99, syn)
	back, err = ParseDecodeTracedInto(got, 0, plain[HeaderSize:])
	if err != nil || back != (TraceContext{}) {
		t.Fatalf("traced parse of plain frame: %+v, %v", back, err)
	}
}

// TestTimedResultRoundTrip: the timed result frame must round-trip both
// the result fields and the server-timing block, and stay invisible to
// peers that did not request telemetry.
func TestTimedResultRoundTrip(t *testing.T) {
	res := Result{
		Status:      StatusOK,
		Tier:        1,
		Satisfied:   true,
		BPIters:     17,
		QueueWaitNs: 1200,
		DecodeNs:    48000,
		CopyOutNs:   700,
		Correction:  testSyndrome(216),
		Observables: testSyndrome(12),
	}
	tm := ServerTiming{
		WorkerID:    5,
		QueueWaitNs: 1200, BatchAssembleNs: 300, DecodeNs: 48000, CopyOutNs: 700,
		ServerTick: 123456789,
	}
	buf := AppendResultTimed(nil, FlagRetried, 2, 41, &res, &tm)
	h, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Op != OpResult || h.Flags&FlagTelemetry == 0 || h.Flags&FlagRetried == 0 {
		t.Fatalf("timed result header: %+v", h)
	}

	var back Result
	SizeResult(&back, 216, 12)
	var btm ServerTiming
	timed, err := ParseResultTimedInto(&back, &btm, h.Flags, buf[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if !timed || btm != tm {
		t.Fatalf("timing block drift: timed=%v %+v != %+v", timed, btm, tm)
	}
	if back.Status != StatusOK || back.BPIters != 17 || !back.Correction.Equal(res.Correction) {
		t.Fatalf("result drift: %+v", back)
	}
	if got, want := tm.ServerNs(), int64(1200+48000+700); got != want {
		t.Fatalf("ServerNs = %d, want %d", got, want)
	}

	// Plain parse must reject the trailing block; timed parse of a plain
	// frame must report no timing.
	if err := ParseResultInto(&back, buf[HeaderSize:]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("plain parse of timed frame: %v, want ErrTruncated", err)
	}
	plain := AppendResult(nil, 0, 2, 41, &res)
	timed, err = ParseResultTimedInto(&back, &btm, 0, plain[HeaderSize:])
	if err != nil || timed {
		t.Fatalf("timed parse of plain frame: timed=%v err=%v", timed, err)
	}
}

// TestTelemetryForwardCompat: an unknown extension version must parse
// as no-telemetry on both frame kinds — never an error, never a panic —
// so a future, longer block degrades gracefully on old peers.
func TestTelemetryForwardCompat(t *testing.T) {
	syn := testSyndrome(72)
	buf := AppendDecodeTraced(nil, 1, 7, syn, TraceContext{TraceID: 9, Sampled: true})
	// Corrupt the version byte (and grow the block: future versions may
	// be longer; everything after an unknown version is skipped).
	buf[len(buf)-traceBlockSize] = TelemetryVersion + 1
	buf = append(buf, 0xAA, 0xBB, 0xCC)
	fixPayloadLen(buf)
	got := gf2.NewVec(72)
	tc, err := ParseDecodeTracedInto(got, FlagTelemetry, buf[HeaderSize:])
	if err != nil || tc != (TraceContext{}) {
		t.Fatalf("unknown request version: %+v, %v", tc, err)
	}
	if !got.Equal(syn) {
		t.Fatal("syndrome corrupted alongside unknown block")
	}
	if _, ok := PeekTraceContext(FlagTelemetry, buf[HeaderSize:]); ok {
		t.Fatal("peek accepted an unknown version block")
	}

	res := Result{Status: StatusOK, Correction: testSyndrome(72), Observables: testSyndrome(12)}
	tm := ServerTiming{DecodeNs: 1}
	rbuf := AppendResultTimed(nil, 0, 1, 7, &res, &tm)
	rbuf[len(rbuf)-timingBlockSize] = TelemetryVersion + 3
	var back Result
	SizeResult(&back, 72, 12)
	var btm ServerTiming
	timed, err := ParseResultTimedInto(&back, &btm, FlagTelemetry, rbuf[HeaderSize:])
	if err != nil || timed {
		t.Fatalf("unknown result version: timed=%v err=%v", timed, err)
	}
	if PeekServerTiming(&btm, FlagTelemetry, rbuf[HeaderSize:]) {
		t.Fatal("peek accepted an unknown version block")
	}
	if trimmed := TrimServerTiming(FlagTelemetry, rbuf[HeaderSize:]); len(trimmed) != len(rbuf)-HeaderSize {
		t.Fatal("trim removed an unknown version block it cannot understand")
	}
}

// TestTelemetryTruncation: a flagged frame with a missing or short v1
// block is a protocol error, not a crash or a silent accept.
func TestTelemetryTruncation(t *testing.T) {
	syn := testSyndrome(72)
	got := gf2.NewVec(72)

	// Flag set, no block at all.
	plain := AppendDecode(nil, 1, 7, syn)
	if _, err := ParseDecodeTracedInto(got, FlagTelemetry, plain[HeaderSize:]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("flag with no block: %v, want ErrTruncated", err)
	}
	// Flag set, short v1 block.
	buf := AppendDecodeTraced(nil, 1, 7, syn, TraceContext{TraceID: 9})
	short := buf[:len(buf)-3]
	fixPayloadLen(short)
	if _, err := ParseDecodeTracedInto(got, FlagTelemetry, short[HeaderSize:]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short trace block: %v, want ErrTruncated", err)
	}

	res := Result{Status: StatusOK, Correction: testSyndrome(72), Observables: testSyndrome(12)}
	var back Result
	SizeResult(&back, 72, 12)
	var tm ServerTiming
	rplain := AppendResult(nil, 0, 1, 7, &res)
	if _, err := ParseResultTimedInto(&back, &tm, FlagTelemetry, rplain[HeaderSize:]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("flagged result with no block: %v, want ErrTruncated", err)
	}
	rbuf := AppendResultTimed(nil, 0, 1, 7, &res, &tm)
	rshort := rbuf[:len(rbuf)-5]
	fixPayloadLen(rshort)
	if _, err := ParseResultTimedInto(&back, &tm, FlagTelemetry, rshort[HeaderSize:]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short timing block: %v, want ErrTruncated", err)
	}
}

// TestPeekAndTrim: the router's tail-peek path must read exactly what
// the full parsers read, and trim must strip exactly the v1 block.
func TestPeekAndTrim(t *testing.T) {
	syn := testSyndrome(72)
	tc := TraceContext{TraceID: 1 << 40, Sampled: true}
	buf := AppendDecodeTraced(nil, 1, 7, syn, tc)
	got, ok := PeekTraceContext(FlagTelemetry, buf[HeaderSize:])
	if !ok || got != tc {
		t.Fatalf("peek trace context: %+v ok=%v", got, ok)
	}
	if _, ok := PeekTraceContext(0, buf[HeaderSize:]); ok {
		t.Fatal("peek honored a clear flag")
	}

	res := Result{Status: StatusOK, Correction: testSyndrome(216), Observables: testSyndrome(12)}
	tm := ServerTiming{WorkerID: 3, QueueWaitNs: 10, DecodeNs: 20, CopyOutNs: 30, ServerTick: 40}
	rbuf := AppendResultTimed(nil, 0, 1, 7, &res, &tm)
	var peeked ServerTiming
	if !PeekServerTiming(&peeked, FlagTelemetry, rbuf[HeaderSize:]) || peeked != tm {
		t.Fatalf("peek server timing: %+v", peeked)
	}

	// Trimming must yield the byte-identical plain payload.
	plain := AppendResult(nil, 0, 1, 7, &res)
	trimmed := TrimServerTiming(FlagTelemetry, rbuf[HeaderSize:])
	if len(trimmed) != len(plain)-HeaderSize {
		t.Fatalf("trimmed length %d, want %d", len(trimmed), len(plain)-HeaderSize)
	}
	for i := range trimmed {
		if trimmed[i] != plain[HeaderSize+i] {
			t.Fatalf("trimmed payload differs from plain at byte %d", i)
		}
	}
	var back Result
	SizeResult(&back, 216, 12)
	if err := ParseResultInto(&back, trimmed); err != nil {
		t.Fatalf("plain parse of trimmed payload: %v", err)
	}
	// Trim without the flag is a no-op. (With the flag set, trim trusts
	// the tail: it is only ever called on responses to requests the
	// router itself flagged, where a compliant replica always appended a
	// block — it cannot distinguish an illegally-flagged plain payload
	// without re-parsing the vector blocks the relay path never touches.)
	if out := TrimServerTiming(0, rbuf[HeaderSize:]); len(out) != len(rbuf)-HeaderSize {
		t.Fatal("trim modified a frame whose flag was clear")
	}
}

// TestAppendTraceBlockExtends: the router path appends a trace block to
// an existing decode payload and the replica-side traced parser must
// accept the combination — the exact relay composition.
func TestAppendTraceBlockExtends(t *testing.T) {
	syn := testSyndrome(72)
	plain := AppendDecode(nil, 1, 7, syn)
	payload := append([]byte(nil), plain[HeaderSize:]...)
	tc := TraceContext{TraceID: 424242, Sampled: true}
	payload = AppendTraceBlock(payload, tc)

	got := gf2.NewVec(72)
	back, err := ParseDecodeTracedInto(got, FlagTelemetry, payload)
	if err != nil || back != tc {
		t.Fatalf("relay-composed payload: %+v, %v", back, err)
	}
	if !got.Equal(syn) {
		t.Fatal("syndrome corrupted by relay-composed block")
	}
	if peeked, ok := PeekTraceContext(FlagTelemetry, payload); !ok || peeked != tc {
		t.Fatalf("peek on relay-composed payload: %+v ok=%v", peeked, ok)
	}
}

// fixPayloadLen restamps the header's payload length after a test
// mutates the frame length in place.
func fixPayloadLen(frame []byte) {
	n := len(frame) - HeaderSize
	frame[16] = byte(n)
	frame[17] = byte(n >> 8)
	frame[18] = byte(n >> 16)
	frame[19] = byte(n >> 24)
}
