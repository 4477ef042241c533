package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"vegapunk/internal/gf2"
)

// randVec draws a random bit vector of length n.
func randVec(n int, rng *rand.Rand) gf2.Vec {
	v := gf2.NewVec(n)
	for i := 0; i < n; i++ {
		if rng.Uint64()&1 == 1 {
			v.Set(i, true)
		}
	}
	return v
}

func TestHeaderRoundTrip(t *testing.T) {
	buf, start := beginFrame(nil, OpDecode, FlagDraining|FlagRetried, 513, 0xdeadbeefcafe)
	buf = append(buf, 1, 2, 3)
	buf = endFrame(buf, start)
	h, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Op != OpDecode || h.Flags != FlagDraining|FlagRetried || h.ModelID != 513 ||
		h.ReqID != 0xdeadbeefcafe || h.PayloadLen != 3 {
		t.Fatalf("header round trip: %+v", h)
	}
}

func TestHeaderRejects(t *testing.T) {
	good, start := beginFrame(nil, OpPing, 0, 0, 1)
	good = endFrame(good, start)

	bad := bytes.Clone(good)
	bad[0] = 'X'
	if _, err := ParseHeader(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	bad = bytes.Clone(good)
	bad[2] = 99
	if _, err := ParseHeader(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	bad = bytes.Clone(good)
	bad[16], bad[17], bad[18], bad[19] = 0xff, 0xff, 0xff, 0xff
	if _, err := ParseHeader(bad); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize: %v", err)
	}
	if _, err := ParseHeader(good[:HeaderSize-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v", err)
	}
}

func TestIsProtocolError(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{ErrBadMagic, true},
		{ErrBadVersion, true},
		{ErrOversize, true},
		{ErrTruncated, true},
		{fmt.Errorf("read frame: %w", ErrBadMagic), true},
		{io.EOF, false},
		{net.ErrClosed, false},
		{ErrBadStatus, true},
		{ErrUnexpectedFrame, true},
		{fmt.Errorf("hello: %w", ErrReqIDMismatch), true},
		{ErrDimMismatch, false},
	}
	for _, c := range cases {
		if got := IsProtocolError(c.err); got != c.want {
			t.Errorf("IsProtocolError(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestDecodeFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 63, 64, 65, 72, 200} {
		syn := randVec(n, rng)
		buf := AppendDecode(nil, 7, 42, syn)
		h, err := ParseHeader(buf)
		if err != nil {
			t.Fatal(err)
		}
		if h.Op != OpDecode || h.ModelID != 7 || h.ReqID != 42 {
			t.Fatalf("n=%d: header %+v", n, h)
		}
		got := gf2.NewVec(n)
		if _, err := ParseDecodeInto(got, buf[HeaderSize:]); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Equal(syn) {
			t.Fatalf("n=%d: syndrome corrupted in transit", n)
		}
		// Wrong receiver size must be rejected, not silently truncated.
		if _, err := ParseDecodeInto(gf2.NewVec(n+1), buf[HeaderSize:]); !errors.Is(err, ErrDimMismatch) {
			t.Fatalf("n=%d: dim mismatch not detected: %v", n, err)
		}
	}
}

func TestResultFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	res := Result{
		Status:    StatusOK,
		Tier:      1,
		Satisfied: true,
		BPIters:   17,
		ServerTiming: ServerTiming{
			WorkerID: 9, QueueWaitNs: 12345, BatchAssembleNs: 222,
			DecodeNs: 67890, CopyOutNs: 111, ServerTick: 987654321,
		},
		Correction:  randVec(144, rng),
		Observables: randVec(12, rng),
	}
	buf := AppendResult(nil, FlagRetried, 3, 99, &res)
	h, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Op != OpResult || h.Flags != FlagRetried || h.ModelID != 3 || h.ReqID != 99 {
		t.Fatalf("header %+v", h)
	}
	var got Result
	SizeResult(&got, 144, 12)
	if err := ParseResultInto(&got, buf[HeaderSize:]); err != nil {
		t.Fatal(err)
	}
	if got.Status != res.Status || got.Tier != res.Tier || got.Satisfied != res.Satisfied ||
		got.BPIters != res.BPIters || got.ServerTiming != res.ServerTiming {
		t.Fatalf("scalar fields corrupted: %+v vs %+v", got, res)
	}
	if !got.Correction.Equal(res.Correction) || !got.Observables.Equal(res.Observables) {
		t.Fatal("vector fields corrupted")
	}

	// Non-OK results carry no vectors.
	res.Status = StatusDecoderFault
	buf = AppendResult(nil, 0, 3, 100, &res)
	h, _ = ParseHeader(buf)
	if h.PayloadLen != resultPrefixSize {
		t.Fatalf("non-OK payload size %d, want %d", h.PayloadLen, resultPrefixSize)
	}
	var errRes Result
	if err := ParseResultInto(&errRes, buf[HeaderSize:]); err != nil {
		t.Fatal(err)
	}
	if errRes.Status != StatusDecoderFault {
		t.Fatalf("status %v", errRes.Status)
	}
}

func TestValidResultPayload(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	res := Result{
		Status:       StatusOK,
		Satisfied:    true,
		ServerTiming: ServerTiming{QueueWaitNs: 100, BatchAssembleNs: 30, DecodeNs: 200, CopyOutNs: 50, ServerTick: 7},
		Correction:   randVec(144, rng),
		Observables:  randVec(12, rng),
	}

	plain := AppendResult(nil, 0, 3, 1, &res)[HeaderSize:]
	if !ValidResultPayload(plain, 144, 12) {
		t.Fatal("well-formed payload rejected")
	}

	// Wrong dimensions: the vec lengths no longer match the model.
	if ValidResultPayload(plain, 143, 12) || ValidResultPayload(plain, 144, 13) {
		t.Fatal("dimension mismatch accepted")
	}
	// A flipped byte in the correction length prefix desyncs the block
	// structure — exactly the corruption the router relay gate exists
	// to catch.
	corrupt := append([]byte(nil), plain...)
	corrupt[resultPrefixSize] ^= 0xFF
	if ValidResultPayload(corrupt, 144, 12) {
		t.Fatal("corrupted vec length accepted")
	}
	// Truncation and trailing garbage both fail.
	if ValidResultPayload(plain[:len(plain)-1], 144, 12) {
		t.Fatal("truncated payload accepted")
	}
	if ValidResultPayload(append(append([]byte(nil), plain...), 0), 144, 12) {
		t.Fatal("trailing byte accepted")
	}

	// A flipped high byte of a stage time still parses, but as a
	// negative or absurd duration the client would record. Every stage
	// is bounded; the server tick and worker id are not stage times.
	for _, f := range []struct {
		off  int
		mask byte
	}{{15, 0x80}, {23, 0x01}, {31, 0x80}, {39, 0x01}} { // queue_wait, batch_assemble, decode, copy_out
		stage := append([]byte(nil), plain...)
		stage[f.off] ^= f.mask
		if ValidResultPayload(stage, 144, 12) {
			t.Fatalf("implausible stage time (byte %d ^ %#x) accepted", f.off, f.mask)
		}
	}
	for _, off := range []int{47, 49} { // server tick, worker id
		other := append([]byte(nil), plain...)
		other[off] ^= 0x80
		if !ValidResultPayload(other, 144, 12) {
			t.Fatalf("flipped non-stage byte %d rejected", off)
		}
	}

	// Non-OK payloads are exactly the fixed prefix.
	res.Status = StatusDecoderFault
	shed := AppendResult(nil, 0, 3, 2, &res)[HeaderSize:]
	if !ValidResultPayload(shed, 144, 12) {
		t.Fatal("well-formed non-OK payload rejected")
	}
	if ValidResultPayload(append(append([]byte(nil), shed...), 0), 144, 12) {
		t.Fatal("non-OK payload with trailing byte accepted")
	}
	bad := append([]byte(nil), shed...)
	bad[0] = byte(numStatuses)
	if ValidResultPayload(bad, 144, 12) {
		t.Fatal("invalid status byte accepted")
	}
}

func TestHelloAndErrorFrames(t *testing.T) {
	buf := AppendHello(nil, 5, "bb-72-12-6/bp/p0.001")
	h, _ := ParseHeader(buf)
	if h.Op != OpHello || string(buf[HeaderSize:]) != "bb-72-12-6/bp/p0.001" {
		t.Fatalf("hello frame: %+v %q", h, buf[HeaderSize:])
	}

	buf = AppendHelloAck(nil, FlagDraining, 2, 5, 72, 216, 12)
	h, _ = ParseHeader(buf)
	det, mech, obs, err := ParseHelloAck(buf[HeaderSize:])
	if err != nil || h.ModelID != 2 || h.Flags != FlagDraining || det != 72 || mech != 216 || obs != 12 {
		t.Fatalf("hello ack: %+v %d/%d/%d %v", h, det, mech, obs, err)
	}

	buf = AppendError(nil, 0, 9, StatusUnknownModel, "no such model")
	h, _ = ParseHeader(buf)
	status, msg, err := ParseError(buf[HeaderSize:])
	if err != nil || h.Op != OpError || status != StatusUnknownModel || msg != "no such model" {
		t.Fatalf("error frame: %+v %v %q %v", h, status, msg, err)
	}
}

// TestParseErrorStatus: an error frame must carry a defined failure
// status. StatusOK or an undefined byte (a flip in flight; there is no
// checksum) is rejected rather than read as a success.
func TestParseErrorStatus(t *testing.T) {
	for _, tc := range []struct {
		status byte
		ok     bool
	}{
		{byte(StatusOK), false},
		{byte(StatusUnknownModel), true},
		{byte(StatusInternal), true},
		{byte(numStatuses), false},
		{0xFF, false},
	} {
		buf := AppendError(nil, 0, 9, Status(tc.status), "msg")
		status, _, err := ParseError(buf[HeaderSize:])
		switch {
		case tc.ok && (err != nil || status != Status(tc.status)):
			t.Errorf("status byte %d: got %v, %v", tc.status, status, err)
		case !tc.ok && !errors.Is(err, ErrBadStatus):
			t.Errorf("status byte %d: err = %v, want ErrBadStatus", tc.status, err)
		}
	}
}

// TestReadResultRejectsOKErrorFrame: an OpError frame whose status byte
// reads StatusOK must fail ReadResult, not hand back the previous
// result's vectors as a success.
func TestReadResultRejectsOKErrorFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := NewClient(b, time.Second)

	syn := gf2.NewVec(64)
	syn.Set(3, true)
	go func() {
		r := NewReader(a)
		for i := 0; i < 2; i++ {
			if _, _, err := r.ReadFrame(); err != nil {
				return
			}
		}
		res := Result{Status: StatusOK, Correction: syn, Observables: gf2.NewVec(0)}
		out := AppendResult(nil, 0, 1, 1, &res)
		out = AppendError(out, 0, 2, StatusOK, "")
		_, _ = a.Write(out)
	}()

	c.QueueDecode(1, 1, syn)
	c.QueueDecode(1, 2, syn)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var res Result
	SizeResult(&res, 64, 0)
	if _, err := c.ReadResult(&res); err != nil || !res.Correction.Equal(syn) {
		t.Fatalf("first result: %v", err)
	}
	if h, err := c.ReadResult(&res); !errors.Is(err, ErrBadStatus) {
		t.Fatalf("OpError with status ok: op=%s err=%v status=%s, want ErrBadStatus", h.Op, err, res.Status)
	}
}

func TestStatusRetryable(t *testing.T) {
	retryable := map[Status]bool{StatusOverload: true, StatusDecoderFault: true}
	for s := StatusOK; s < numStatuses; s++ {
		if got := s.Retryable(); got != retryable[s] {
			t.Errorf("%s.Retryable() = %v", s, got)
		}
	}
}

// TestReaderPipelined streams several frames through a Reader over a
// real socket and checks FrameBuffered sees the pipelined tail.
func TestReaderPipelined(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	rng := rand.New(rand.NewPCG(5, 6))
	syns := make([]gf2.Vec, 4)
	var buf []byte
	for i := range syns {
		syns[i] = randVec(72, rng)
		buf = AppendDecode(buf, 1, uint64(i), syns[i])
	}
	go func() {
		if _, err := client.Write(buf); err != nil {
			t.Error(err)
		}
	}()

	r := NewReader(server)
	got := gf2.NewVec(72)
	for i := range syns {
		h, payload, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if h.ReqID != uint64(i) {
			t.Fatalf("frame %d: req id %d", i, h.ReqID)
		}
		if _, err := ParseDecodeInto(got, payload); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(syns[i]) {
			t.Fatalf("frame %d corrupted", i)
		}
		// After the first blocking read, the remaining pipelined frames
		// are buffered and visible without blocking.
		if wantMore := i < len(syns)-1; r.FrameBuffered() != wantMore {
			t.Fatalf("frame %d: FrameBuffered = %v, want %v", i, !wantMore, wantMore)
		}
	}
}

// TestParseVecMasksSpareBits checks hostile spare bits in the last
// word cannot break the gf2.Vec invariant.
func TestParseVecMasksSpareBits(t *testing.T) {
	syn := gf2.NewVec(10)
	syn.Set(3, true)
	buf := AppendDecode(nil, 0, 0, syn)
	// Corrupt the last vector word's high bits beyond bit 10 (the word
	// ends where the trace block begins).
	buf[len(buf)-traceBlockSize-1] = 0xff
	got := gf2.NewVec(10)
	if _, err := ParseDecodeInto(got, buf[HeaderSize:]); err != nil {
		t.Fatal(err)
	}
	// The corrupted byte covers bits 56-63, all beyond Len: masking
	// must restore the exact original vector.
	if got.Word(0)>>10 != 0 {
		t.Fatalf("spare bits above Len survived: %x", got.Word(0))
	}
	if !got.Equal(syn) {
		t.Fatal("in-range bits corrupted by masking")
	}
}
