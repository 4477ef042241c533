package wire

import (
	"encoding/hex"
	"errors"
	"strings"
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

// Golden version-2 frames, one field per group (DESIGN.md §6.1.1 has
// the same tables). Header: magic, version, op, flags, model id,
// request id, payload length.
const (
	// OpDecode for model 3, request 0x0102030405060708: a 72-bit
	// syndrome with bits 0, 36 and 71 set, then the trace block
	// (sampled, id 0x1122334455667788).
	goldenDecode = "5056 02 03 0000 0300 0807060504030201 1d000000" +
		" 48000000 0100000010000000 8000000000000000" +
		" 01 8877665544332211"
	// OpResult (FlagRetried) for model 3, request 9: StatusOK, tier 0,
	// satisfied, reserved, 17 bp iterations, queue_wait 0x0101,
	// batch_assemble 0x0202, decode 0x0303, copy_out 0x0404, server
	// tick 0x0505, worker 6; then an 8-bit correction with bit 1 set
	// and a 2-bit observable vector with bit 0 set.
	goldenResultOK = "5056 02 04 0800 0300 0900000000000000 4a000000" +
		" 00 00 01 00 11000000" +
		" 0101000000000000 0202000000000000 0303000000000000 0404000000000000" +
		" 0505000000000000 0600" +
		" 08000000 0200000000000000 02000000 0100000000000000"
	// OpResult for model 3, request 10: StatusDecoderFault with zero
	// stage times, the server tick 0x0707 and no vectors.
	goldenResultFault = "5056 02 04 0000 0300 0a00000000000000 32000000" +
		" 05 00 00 00 00000000" +
		" 0000000000000000 0000000000000000 0000000000000000 0000000000000000" +
		" 0707000000000000 0000"
)

// TestFrameLayoutGolden pins the version-2 byte layout of the decode
// frame, an OK result and a non-OK result, hex for hex, and that a
// version-1 header is refused: the encoders and parsers are each
// other's inverses, so a swap of two fields in both would pass every
// round trip and only a byte-exact check catches it.
func TestFrameLayoutGolden(t *testing.T) {
	golden := func(name, want string, frame []byte) {
		t.Helper()
		if got, want := hex.EncodeToString(frame), strings.ReplaceAll(want, " ", ""); got != want {
			t.Errorf("%s frame\n got %s\nwant %s", name, got, want)
		}
	}

	syn := gf2.NewVec(72)
	for _, i := range []int{0, 36, 71} {
		syn.Set(i, true)
	}
	tc := TraceContext{TraceID: 0x1122334455667788, Sampled: true}
	dec := AppendDecodeTraced(nil, 3, 0x0102030405060708, syn, tc)
	golden("decode", goldenDecode, dec)
	got := gf2.NewVec(72)
	if back, err := ParseDecodeInto(got, dec[HeaderSize:]); err != nil || back != tc || !got.Equal(syn) {
		t.Errorf("golden decode parses to %+v, %v", back, err)
	}

	corr, obsv := gf2.NewVec(8), gf2.NewVec(2)
	corr.Set(1, true)
	obsv.Set(0, true)
	ok := Result{
		Status: StatusOK, Satisfied: true, BPIters: 17,
		ServerTiming: ServerTiming{
			QueueWaitNs: 0x0101, BatchAssembleNs: 0x0202, DecodeNs: 0x0303, CopyOutNs: 0x0404,
			ServerTick: 0x0505, WorkerID: 6,
		},
		Correction: corr, Observables: obsv,
	}
	okFrame := AppendResult(nil, FlagRetried, 3, 9, &ok)
	golden("OK result", goldenResultOK, okFrame)
	var back Result
	SizeResult(&back, 8, 2)
	if err := ParseResultInto(&back, okFrame[HeaderSize:]); err != nil ||
		back.ServerTiming != ok.ServerTiming || !back.Correction.Equal(corr) || !back.Observables.Equal(obsv) {
		t.Errorf("golden OK result parses to %+v, %v", back, err)
	}

	fault := Result{Status: StatusDecoderFault, ServerTiming: ServerTiming{ServerTick: 0x0707}}
	golden("non-OK result", goldenResultFault, AppendResult(nil, 0, 3, 10, &fault))

	v1 := append([]byte(nil), dec...)
	v1[2] = 1
	if _, err := ParseHeader(v1); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version-1 header: %v, want ErrBadVersion", err)
	}
}

// TestTracedDecodeRoundTrip: the decode frame carries the syndrome and
// trace context bit-identically, the router's tail peek reads the same
// block the parser does, and the untraced encoder writes a zero block.
func TestTracedDecodeRoundTrip(t *testing.T) {
	syn := testSyndrome(72)
	tc := TraceContext{TraceID: 0xDEADBEEFCAFE, Sampled: true}
	buf := AppendDecodeTraced(nil, 3, 99, syn, tc)

	h, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Op != OpDecode || h.Flags != 0 {
		t.Fatalf("decode header: %+v", h)
	}
	got := gf2.NewVec(72)
	back, err := ParseDecodeInto(got, buf[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if back != tc {
		t.Fatalf("trace context drift: %+v != %+v", back, tc)
	}
	if !got.Equal(syn) {
		t.Fatal("syndrome corrupted by trace block")
	}
	if peeked, ok := PeekTraceContext(buf[HeaderSize:]); !ok || peeked != tc {
		t.Fatalf("peek trace context: %+v ok=%v", peeked, ok)
	}

	plain := AppendDecode(nil, 3, 99, syn)
	back, err = ParseDecodeInto(got, plain[HeaderSize:])
	if err != nil || back != (TraceContext{}) {
		t.Fatalf("untraced frame: %+v, %v", back, err)
	}
	if len(plain) != len(buf) {
		t.Fatalf("untraced frame is %d bytes, traced %d: one shape for both", len(plain), len(buf))
	}
}

// TestPutTraceContextRewritesBlock: the router writes the id it issues
// for a zero-id lane into the copied payload in place, and the replica
// parses exactly that block — the relay composition.
func TestPutTraceContextRewritesBlock(t *testing.T) {
	syn := testSyndrome(72)
	plain := AppendDecode(nil, 1, 7, syn)
	payload := append([]byte(nil), plain[HeaderSize:]...)
	tc := TraceContext{TraceID: 424242, Sampled: true}
	PutTraceContext(payload, tc)
	if len(payload) != len(plain)-HeaderSize {
		t.Fatal("rewriting the block changed the payload length")
	}

	got := gf2.NewVec(72)
	back, err := ParseDecodeInto(got, payload)
	if err != nil || back != tc {
		t.Fatalf("rewritten payload: %+v, %v", back, err)
	}
	if !got.Equal(syn) {
		t.Fatal("syndrome corrupted by the rewritten block")
	}
	// Clearing the sampled bit must clear the byte, not leave it set.
	tc.Sampled = false
	PutTraceContext(payload, tc)
	if back, _ := PeekTraceContext(payload); back != tc {
		t.Fatalf("rewritten block peeks as %+v, want %+v", back, tc)
	}
}

// TestTimedResultRoundTrip: every result frame round-trips the result
// fields and the replica's timing, and the router's prefix peek reads
// the same timing as the full parse.
func TestTimedResultRoundTrip(t *testing.T) {
	tm := ServerTiming{
		WorkerID:    5,
		QueueWaitNs: 1200, BatchAssembleNs: 300, DecodeNs: 48000, CopyOutNs: 700,
		ServerTick: 123456789,
	}
	res := Result{
		Status:       StatusOK,
		Tier:         1,
		Satisfied:    true,
		BPIters:      17,
		ServerTiming: tm,
		Correction:   testSyndrome(216),
		Observables:  testSyndrome(12),
	}
	buf := AppendResult(nil, FlagRetried, 2, 41, &res)
	h, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Op != OpResult || h.Flags != FlagRetried {
		t.Fatalf("result header: %+v", h)
	}

	var back Result
	SizeResult(&back, 216, 12)
	if err := ParseResultInto(&back, buf[HeaderSize:]); err != nil {
		t.Fatal(err)
	}
	if back.ServerTiming != tm {
		t.Fatalf("timing drift: %+v != %+v", back.ServerTiming, tm)
	}
	if back.Status != StatusOK || back.BPIters != 17 || !back.Correction.Equal(res.Correction) {
		t.Fatalf("result drift: %+v", back)
	}
	if got, want := tm.ServerNs(), int64(1200+48000+700); got != want {
		t.Fatalf("ServerNs = %d, want %d", got, want)
	}
	var peeked ServerTiming
	if !PeekServerTiming(&peeked, buf[HeaderSize:]) || peeked != tm {
		t.Fatalf("peek server timing: %+v", peeked)
	}
}

// TestTelemetryTruncation: a decode frame with a missing, short or
// overlong trace block, and a result cut inside its prefix, are
// protocol errors, not a crash or a silent accept.
func TestTelemetryTruncation(t *testing.T) {
	syn := testSyndrome(72)
	got := gf2.NewVec(72)
	payload := AppendDecodeTraced(nil, 1, 7, syn, TraceContext{TraceID: 9})[HeaderSize:]

	noBlock := payload[:len(payload)-traceBlockSize]
	if _, err := ParseDecodeInto(got, noBlock); !errors.Is(err, ErrTruncated) {
		t.Fatalf("no trace block: %v, want ErrTruncated", err)
	}
	if _, err := ParseDecodeInto(got, payload[:len(payload)-3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short trace block: %v, want ErrTruncated", err)
	}
	if _, err := ParseDecodeInto(got, append(append([]byte(nil), payload...), 0)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("overlong trace block: %v, want ErrTruncated", err)
	}
	if _, ok := PeekTraceContext(payload[:4+traceBlockSize-1]); ok {
		t.Fatal("peek read a block out of a payload too short to hold one")
	}

	res := Result{Status: StatusDecoderFault}
	rp := AppendResult(nil, 0, 1, 7, &res)[HeaderSize:]
	var back Result
	if err := ParseResultInto(&back, rp[:len(rp)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("result cut in its prefix: %v, want ErrTruncated", err)
	}
	var tm ServerTiming
	if PeekServerTiming(&tm, rp[:len(rp)-1]) {
		t.Fatal("peek read timing out of a payload shorter than the prefix")
	}
}
