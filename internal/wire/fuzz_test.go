package wire

import (
	"bytes"
	"errors"
	"testing"

	"vegapunk/internal/gf2"
)

// FuzzWireFrameRoundTrip encodes a decode request and a result frame
// from fuzz-chosen fields — the trace block and every timing field
// included — and checks everything parses back bit-identically, through
// the full parsers and the router's in-place peeks alike.
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

		tc := TraceContext{TraceID: reqID ^ uint64(iters)<<16, Sampled: sat}
		buf := AppendDecodeTraced(nil, modelID, reqID, syn, tc)
		h, err := ParseHeader(buf)
		if err != nil {
			t.Fatalf("ParseHeader on own encoding: %v", err)
		}
		if h.Op != OpDecode || h.Flags != 0 || h.ModelID != modelID || h.ReqID != reqID ||
			h.PayloadLen != len(buf)-HeaderSize {
			t.Fatalf("header drift: %+v", h)
		}
		got := gf2.NewVec(n)
		btc, err := ParseDecodeInto(got, buf[HeaderSize:])
		if err != nil {
			t.Fatalf("ParseDecodeInto on own encoding: %v", err)
		}
		if btc != tc || !got.Equal(syn) {
			t.Fatalf("decode drift: %+v != %+v", btc, tc)
		}
		if ptc, ok := PeekTraceContext(buf[HeaderSize:]); !ok || ptc != tc {
			t.Fatalf("peek trace context drift: %+v ok=%v", ptc, ok)
		}
		// The router's in-place rewrite must reproduce the frame the
		// traced encoder writes from the untraced one.
		plain := AppendDecode(nil, modelID, reqID, syn)
		PutTraceContext(plain[HeaderSize:], tc)
		if !bytes.Equal(plain, buf) {
			t.Fatal("rewritten untraced frame differs from the traced encoding")
		}

		res := Result{
			Status:    StatusOK,
			Tier:      tier,
			Satisfied: sat,
			BPIters:   iters,
			ServerTiming: ServerTiming{
				WorkerID:    modelID,
				QueueWaitNs: int64(reqID) ^ 7, BatchAssembleNs: int64(iters),
				DecodeNs: int64(n), CopyOutNs: -int64(tier), ServerTick: int64(reqID >> 1),
			},
			Correction:  syn,
			Observables: got,
		}
		buf = AppendResult(buf[:0], FlagRetried, modelID, reqID, &res)
		var back Result
		SizeResult(&back, n, n)
		if err := ParseResultInto(&back, buf[HeaderSize:]); err != nil {
			t.Fatalf("ParseResultInto on own encoding: %v", err)
		}
		if back.Tier != tier || back.Satisfied != sat || back.BPIters != iters ||
			back.ServerTiming != res.ServerTiming {
			t.Fatalf("result scalar drift: %+v", back)
		}
		if !back.Correction.Equal(syn) || !back.Observables.Equal(got) {
			t.Fatal("result vectors corrupted")
		}
		var ptm ServerTiming
		if !PeekServerTiming(&ptm, buf[HeaderSize:]) || ptm != res.ServerTiming {
			t.Fatalf("peek server timing drift: %+v", ptm)
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
	// Fixed-block seeds: a traced decode and a timed result, each whole
	// and cut inside its block, and the traced decode under a version-1
	// header (refused at the header).
	traced := AppendDecodeTraced(nil, 1, 2, syn, TraceContext{TraceID: 99, Sampled: true})
	f.Add(traced, 72)
	f.Add(traced[:len(traced)-4], 72)
	res.ServerTiming = ServerTiming{WorkerID: 2, QueueWaitNs: 3, BatchAssembleNs: 4, DecodeNs: 5, CopyOutNs: 6, ServerTick: 9}
	timed := AppendResult(nil, 0, 1, 2, &res)
	f.Add(timed, 72)
	f.Add(timed[:HeaderSize+resultPrefixSize-7], 72)
	v1 := append([]byte{}, traced...)
	v1[2] = 1
	f.Add(v1, 72)
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
		if _, err := ParseHeader(raw); err != nil {
			// Rejected at the header; nothing further to check.
			return
		}
		payload := raw[HeaderSize:]

		v := gf2.NewVec(n)
		if tc, err := ParseDecodeInto(v, payload); err == nil {
			// Accepted: the invariant must hold (spare bits zero), and
			// the router's tail peek must read the same block.
			if words := (n + 63) / 64; n%64 != 0 && v.Word(words-1)>>(uint(n%64)) != 0 {
				t.Fatal("accepted decode frame broke the Vec invariant")
			}
			if ptc, ok := PeekTraceContext(payload); !ok || ptc != tc {
				t.Fatalf("peek read %+v (ok=%v) where the parser read %+v", ptc, ok, tc)
			}
		} else if !isProtoErr(err) {
			t.Fatalf("unexpected error class: %v", err)
		}
		// The relay's tail peek and in-place rewrite must tolerate
		// anything they accept.
		if tc, ok := PeekTraceContext(payload); ok {
			cp := append([]byte(nil), payload...)
			PutTraceContext(cp, TraceContext{TraceID: tc.TraceID + 1, Sampled: !tc.Sampled})
		}

		var r Result
		SizeResult(&r, n, n)
		if err := ParseResultInto(&r, payload); err != nil && !isProtoErr(err) {
			t.Fatalf("unexpected error class: %v", err)
		}
		// The relay gate promises a payload it passes parses at the
		// client, with every stage time in bounds.
		if ValidResultPayload(payload, n, n) {
			if err := ParseResultInto(&r, payload); err != nil {
				t.Fatalf("relay gate passed a payload the client rejects: %v", err)
			}
			for _, ns := range []int64{r.QueueWaitNs, r.BatchAssembleNs, r.DecodeNs, r.CopyOutNs} {
				if ns < 0 || ns > MaxStageNs {
					t.Fatalf("relay gate passed stage time %d", ns)
				}
			}
		}
		var tm ServerTiming
		if PeekServerTiming(&tm, payload) != (len(payload) >= resultPrefixSize) {
			t.Fatal("timing peek disagrees with the prefix length")
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
