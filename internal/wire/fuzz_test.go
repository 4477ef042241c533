package wire

import (
	"bytes"
	"errors"
	"testing"

	"vegapunk/internal/gf2"
)

// FuzzWireFrameRoundTrip encodes a decode request and a result frame
// from fuzz-chosen fields — plain and telemetry-extended variants — and
// checks everything parses back bit-identically.
func FuzzWireFrameRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint64(7), 72, []byte{0x0f, 0xf0}, uint8(0), true, uint32(12))
	f.Add(uint16(0), uint64(0), 1, []byte{1}, uint8(2), false, uint32(0))
	f.Add(uint16(65535), uint64(1<<63), 200, bytes.Repeat([]byte{0xaa}, 25), uint8(1), true, uint32(1<<31))
	f.Fuzz(func(t *testing.T, modelID uint16, reqID uint64, n int, bits []byte, tier uint8, sat bool, iters uint32) {
		if n <= 0 || n > 4096 {
			t.Skip()
		}
		syn := gf2.NewVec(n)
		for i := 0; i < n && i/8 < len(bits); i++ {
			if bits[i/8]&(1<<(i%8)) != 0 {
				syn.Set(i, true)
			}
		}

		buf := AppendDecode(nil, modelID, reqID, syn)
		h, err := ParseHeader(buf)
		if err != nil {
			t.Fatalf("ParseHeader on own encoding: %v", err)
		}
		if h.Op != OpDecode || h.ModelID != modelID || h.ReqID != reqID ||
			h.PayloadLen != len(buf)-HeaderSize {
			t.Fatalf("header drift: %+v", h)
		}
		got := gf2.NewVec(n)
		if err := ParseDecodeInto(got, buf[HeaderSize:]); err != nil {
			t.Fatalf("ParseDecodeInto on own encoding: %v", err)
		}
		if !got.Equal(syn) {
			t.Fatal("syndrome round trip corrupted bits")
		}

		res := Result{
			Status:      StatusOK,
			Tier:        tier,
			Satisfied:   sat,
			BPIters:     iters,
			QueueWaitNs: int64(reqID) ^ 42,
			DecodeNs:    int64(iters),
			CopyOutNs:   -1,
			Correction:  syn,
			Observables: got,
		}
		buf = AppendResult(buf[:0], FlagBreakerOpen, modelID, reqID, &res)
		var back Result
		SizeResult(&back, n, n)
		if err := ParseResultInto(&back, buf[HeaderSize:]); err != nil {
			t.Fatalf("ParseResultInto on own encoding: %v", err)
		}
		if back.Tier != tier || back.Satisfied != sat || back.BPIters != iters ||
			back.QueueWaitNs != res.QueueWaitNs || back.CopyOutNs != -1 {
			t.Fatalf("result scalar drift: %+v", back)
		}
		if !back.Correction.Equal(syn) || !back.Observables.Equal(got) {
			t.Fatal("result vectors corrupted")
		}

		// Telemetry-extended variants of both frames: the trace context
		// and server-timing block must ride the same payloads untouched.
		tc := TraceContext{TraceID: reqID ^ uint64(iters)<<16, Sampled: sat}
		buf = AppendDecodeTraced(buf[:0], modelID, reqID, syn, tc)
		th, err := ParseHeader(buf)
		if err != nil {
			t.Fatalf("ParseHeader on traced encoding: %v", err)
		}
		if th.Flags&FlagTelemetry == 0 {
			t.Fatal("traced decode frame lost FlagTelemetry")
		}
		btc, err := ParseDecodeTracedInto(got, th.Flags, buf[HeaderSize:])
		if err != nil {
			t.Fatalf("ParseDecodeTracedInto on own encoding: %v", err)
		}
		if btc != tc || !got.Equal(syn) {
			t.Fatalf("traced request drift: %+v != %+v", btc, tc)
		}
		if ptc, ok := PeekTraceContext(th.Flags, buf[HeaderSize:]); !ok || ptc != tc {
			t.Fatalf("peek trace context drift: %+v ok=%v", ptc, ok)
		}

		tm := ServerTiming{
			WorkerID:    modelID,
			QueueWaitNs: int64(reqID) ^ 7, BatchAssembleNs: int64(iters),
			DecodeNs: int64(n), CopyOutNs: -int64(tier), ServerTick: int64(reqID >> 1),
		}
		buf = AppendResultTimed(buf[:0], FlagBreakerOpen, modelID, reqID, &res, &tm)
		rh, err := ParseHeader(buf)
		if err != nil {
			t.Fatalf("ParseHeader on timed encoding: %v", err)
		}
		var btm ServerTiming
		timed, err := ParseResultTimedInto(&back, &btm, rh.Flags, buf[HeaderSize:])
		if err != nil {
			t.Fatalf("ParseResultTimedInto on own encoding: %v", err)
		}
		if !timed || btm != tm {
			t.Fatalf("timing block drift: timed=%v %+v != %+v", timed, btm, tm)
		}
		if !back.Correction.Equal(syn) || !back.Observables.Equal(got) {
			t.Fatal("timed result vectors corrupted")
		}
		var ptm ServerTiming
		if !PeekServerTiming(&ptm, rh.Flags, buf[HeaderSize:]) || ptm != tm {
			t.Fatalf("peek server timing drift: %+v", ptm)
		}
		// Trimming the block must recover the exact plain payload.
		plain := AppendResult(nil, FlagBreakerOpen, modelID, reqID, &res)
		trimmed := TrimServerTiming(rh.Flags, buf[HeaderSize:])
		if !bytes.Equal(trimmed, plain[HeaderSize:]) {
			t.Fatal("trimmed timed payload differs from the plain encoding")
		}
	})
}

// FuzzWireParseCorrupt throws arbitrary bytes at the parsers: they must
// reject garbage with a protocol error (never panic, never accept a
// vector of the wrong length, never write out of bounds).
func FuzzWireParseCorrupt(f *testing.F) {
	syn := gf2.NewVec(72)
	syn.Set(3, true)
	syn.Set(71, true)
	f.Add(AppendDecode(nil, 1, 2, syn), 72)
	res := Result{Status: StatusOK, Correction: syn, Observables: gf2.NewVec(12)}
	f.Add(AppendResult(nil, 0, 1, 2, &res), 72)
	f.Add([]byte{}, 1)
	f.Add(bytes.Repeat([]byte{0xff}, 64), 16)
	// Telemetry seeds: a well-formed traced pair, a truncated trace
	// block, a flagged frame with no block at all, and an unknown
	// extension version (must parse as no-telemetry, never panic).
	traced := AppendDecodeTraced(nil, 1, 2, syn, TraceContext{TraceID: 99, Sampled: true})
	f.Add(traced, 72)
	f.Add(traced[:len(traced)-4], 72)
	timed := AppendResultTimed(nil, 0, 1, 2, &res, &ServerTiming{DecodeNs: 5, ServerTick: 9})
	f.Add(timed, 72)
	f.Add(timed[:len(timed)-7], 72)
	unknown := append(append([]byte{}, traced...), 0)
	unknown[len(unknown)-traceBlockSize-1] = TelemetryVersion + 1
	f.Add(unknown, 72)
	// Error frames whose status is no failure: StatusOK and undefined.
	f.Add(AppendError(nil, 0, 2, StatusOK, ""), 72)
	f.Add(AppendError(nil, 0, 2, Status(0xFF), "x"), 72)
	// Mid-stream byte-flip seeds over the canonical multi-frame
	// pipelined buffer: magic of frame 2, payload-length field of
	// frame 1, a payload byte of frame 2, and a req-id byte of
	// frame 3 — bad frames a stream reader must stop at without
	// misattributing any frame.
	pipe, bounds, _ := flipPipeline()
	for _, off := range []int{bounds[1].start, 16, bounds[1].start + HeaderSize + 3, bounds[2].start + 8} {
		flipped := append([]byte{}, pipe...)
		flipped[off] ^= 0xFF
		f.Add(flipped, 72)
	}
	f.Fuzz(func(t *testing.T, raw []byte, n int) {
		if n <= 0 || n > 4096 {
			t.Skip()
		}
		h, err := ParseHeader(raw)
		if err != nil {
			// Rejected at the header; nothing further to check.
			return
		}
		payload := raw[HeaderSize:]

		v := gf2.NewVec(n)
		if err := ParseDecodeInto(v, payload); err == nil {
			// Accepted: the invariant must hold (spare bits zero).
			if words := (n + 63) / 64; n%64 != 0 && v.Word(words-1)>>(uint(n%64)) != 0 {
				t.Fatal("accepted decode frame broke the Vec invariant")
			}
		} else if !isProtoErr(err) {
			t.Fatalf("unexpected error class: %v", err)
		}

		var r Result
		SizeResult(&r, n, n)
		if err := ParseResultInto(&r, payload); err != nil && !isProtoErr(err) {
			t.Fatalf("unexpected error class: %v", err)
		}

		// Telemetry parsers under the frame's own flags and under a
		// forced FlagTelemetry: reject with a protocol error or accept
		// with the invariants intact, never panic.
		for _, flags := range []Flags{h.Flags, h.Flags | FlagTelemetry} {
			if tc, err := ParseDecodeTracedInto(v, flags, payload); err == nil {
				if flags&FlagTelemetry == 0 && tc != (TraceContext{}) {
					t.Fatal("unflagged frame produced a trace context")
				}
			} else if !isProtoErr(err) {
				t.Fatalf("unexpected error class: %v", err)
			}
			var tm ServerTiming
			if timed, err := ParseResultTimedInto(&r, &tm, flags, payload); err == nil {
				if flags&FlagTelemetry == 0 && timed {
					t.Fatal("unflagged frame produced a timing block")
				}
			} else if !isProtoErr(err) {
				t.Fatalf("unexpected error class: %v", err)
			}
			// The relay tail-peeks and trim must tolerate anything.
			_, _ = PeekTraceContext(flags, payload)
			_ = PeekServerTiming(&tm, flags, payload)
			if out := TrimServerTiming(flags, payload); len(out) > len(payload) {
				t.Fatal("trim grew the payload")
			}
		}

		if _, _, _, err := ParseHelloAck(payload); err != nil && !isProtoErr(err) {
			t.Fatalf("unexpected error class: %v", err)
		}
		if status, _, err := ParseError(payload); err != nil && !isProtoErr(err) {
			t.Fatalf("unexpected error class: %v", err)
		} else if err == nil && (status == StatusOK || status >= numStatuses) {
			t.Fatalf("error frame accepted with status byte %d", status)
		}

		// Stream pass: a Reader over the same bytes must terminate
		// without panicking, and — when raw is the canonical
		// pipelined buffer with exactly ONE byte flipped — must never
		// attribute a payload to the wrong req-id: any yielded frame
		// whose original byte range the flip did not touch has to come
		// back bit-identical. (A flip inside a frame's own bytes may
		// corrupt that frame arbitrarily, including its req-id; no
		// checksum exists to catch that, so only untouched frames are
		// held to the attribution bar.)
		checkStream(t, raw)
	})
}

// frameSpan is one frame's byte range inside the canonical pipelined
// buffer built by flipPipeline.
type frameSpan struct{ start, end int }

// flipPipeline builds the canonical 3-frame pipelined decode buffer
// (req-ids 1..3) used by the byte-flip seeds. The syndromes are
// alternating-bit patterns, so no single-byte flip can fabricate a
// spurious frame magic inside a payload.
func flipPipeline() (buf []byte, bounds [3]frameSpan, payloads [3][]byte) {
	for i := 0; i < 3; i++ {
		syn := gf2.NewVec(128)
		for j := 1; j < 128; j += 2 {
			syn.Set(j, true) // 0xAA payload bytes
		}
		start := len(buf)
		buf = AppendDecode(buf, 1, uint64(i+1), syn)
		bounds[i] = frameSpan{start: start, end: len(buf)}
		payloads[i] = append([]byte{}, buf[start+HeaderSize:]...)
	}
	return buf, bounds, payloads
}

// checkStream drains raw through a Reader and enforces the
// no-misattribution invariant against the canonical pipelined buffer
// when raw is one flip away from it.
func checkStream(t *testing.T, raw []byte) {
	t.Helper()
	pipe, bounds, payloads := flipPipeline()
	flip := -1
	if len(raw) == len(pipe) {
		diffs := 0
		for i := range raw {
			if raw[i] != pipe[i] {
				flip = i
				diffs++
				if diffs > 1 {
					break
				}
			}
		}
		if diffs != 1 {
			flip = -1
		}
	}
	r := NewReader(bytes.NewReader(raw))
	// Every successful ReadFrame consumes at least HeaderSize bytes, so
	// a terminating reader yields at most len(raw)/HeaderSize frames.
	for i := 0; i <= len(raw)/HeaderSize+1; i++ {
		h, payload, err := r.ReadFrame()
		if err != nil {
			return // terminal: EOF or a bad frame
		}
		if flip < 0 || h.ReqID < 1 || h.ReqID > 3 {
			continue
		}
		fs := bounds[h.ReqID-1]
		if flip >= fs.start && flip < fs.end {
			continue // the flip hit this frame's own bytes
		}
		if h.Op != OpDecode || !bytes.Equal(payload, payloads[h.ReqID-1]) {
			t.Fatalf("payload misattributed to req-id %d after flip at %d", h.ReqID, flip)
		}
	}
	t.Fatalf("reader did not terminate over %d bytes", len(raw))
}

func isProtoErr(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrDimMismatch) ||
		errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion) ||
		errors.Is(err, ErrOversize) || errors.Is(err, ErrBadStatus)
}
