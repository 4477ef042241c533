package wire

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"vegapunk/internal/gf2"
)

func synPattern(n int, stride int) gf2.Vec {
	v := gf2.NewVec(n)
	for i := 0; i < n; i += stride {
		v.Set(i, true)
	}
	return v
}

// TestReaderHeaderDeadlineRetry proves a read deadline firing
// mid-header is non-destructive: the header is Peeked, so nothing is
// consumed and the same read can be retried once bytes arrive.
func TestReaderHeaderDeadlineRetry(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	r := NewReader(b)

	frame := AppendDecode(nil, 1, 7, synPattern(64, 3))
	go func() { _, _ = a.Write(frame[:10]) }() // half a header, then silence

	_ = b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := r.ReadFrame(); err == nil {
		t.Fatal("ReadFrame succeeded on half a header")
	} else if nerr := net.Error(nil); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("mid-header error = %v, want timeout", err)
	}
	if r.Broken() != nil {
		t.Fatalf("mid-header timeout poisoned the stream: %v", r.Broken())
	}

	go func() { _, _ = a.Write(frame[10:]) }()
	_ = b.SetReadDeadline(time.Now().Add(5 * time.Second))
	h, payload, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("retry after header timeout: %v", err)
	}
	if h.Op != OpDecode || h.ReqID != 7 || !bytes.Equal(payload, frame[HeaderSize:]) {
		t.Fatalf("retried frame drifted: %+v", h)
	}
}

// TestReaderPartialPayloadPoisons proves a deadline firing with a
// partially-read frame poisons the connection: the parser must never
// resume from the middle of a frame.
func TestReaderPartialPayloadPoisons(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	r := NewReader(b)

	frame := AppendDecode(nil, 1, 9, synPattern(256, 2))
	go func() { _, _ = a.Write(frame[:HeaderSize+5]) }() // header + part of the payload

	_ = b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := r.ReadFrame(); err == nil {
		t.Fatal("ReadFrame succeeded on a truncated payload")
	}
	if r.Broken() == nil {
		t.Fatal("mid-payload timeout did not poison the stream")
	}

	// Even after the rest arrives the stream must stay dead: the
	// consumed prefix makes re-framing unsound.
	go func() { _, _ = a.Write(frame[HeaderSize+5:]) }()
	_ = b.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := r.ReadFrame(); err == nil {
		t.Fatal("poisoned reader returned a frame")
	}
	if r.FrameBuffered() {
		t.Fatal("poisoned reader claims a buffered frame")
	}
}

// TestReaderBadHeaderPoisons proves a corrupted frame header poisons
// the reader: the intact frame behind it is never returned, because a
// stream that lost its framing cannot be trusted to find it again.
func TestReaderBadHeaderPoisons(t *testing.T) {
	f1 := AppendDecode(nil, 1, 1, synPattern(128, 2))
	f2 := AppendDecode(nil, 1, 2, synPattern(128, 3))
	buf := append(append([]byte{}, f1...), f2...)
	buf[0] ^= 0xFF // corrupt frame 1's magic

	r := NewReader(bytes.NewReader(buf))
	if _, _, err := r.ReadFrame(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("error = %v, want ErrBadMagic", err)
	}
	if r.Broken() == nil {
		t.Fatal("reader did not poison on bad magic")
	}
	if _, _, err := r.ReadFrame(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("read after bad magic = %v, want the poison error", err)
	}
	if r.FrameBuffered() {
		t.Fatal("poisoned reader claims a buffered frame")
	}
}

// TestClientOutOfOrderReqIDPoisons proves responses must answer the
// queued requests in order: a response for a later request than the
// oldest unanswered one poisons the client instead of writing the
// skipped request off.
func TestClientOutOfOrderReqIDPoisons(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := NewClient(b, time.Second)

	syn := synPattern(64, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Drain the client's flush, then answer req 2 before req 1.
		r := NewReader(a)
		for i := 0; i < 2; i++ {
			if _, _, err := r.ReadFrame(); err != nil {
				return
			}
		}
		res := Result{Status: StatusOK, Correction: syn, Observables: gf2.NewVec(0)}
		out := AppendResult(nil, 0, 1, 2, &res)
		out = AppendResult(out, 0, 1, 1, &res)
		_, _ = a.Write(out)
	}()

	c.QueueDecode(1, 1, syn)
	c.QueueDecode(1, 2, syn)
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var res Result
	SizeResult(&res, 64, 0)
	if _, err := c.ReadResult(&res); !errors.Is(err, ErrReqIDMismatch) {
		t.Fatalf("out-of-order id error = %v, want ErrReqIDMismatch", err)
	}
	// Poisoned: the in-order response behind it is never attributed.
	if _, err := c.ReadResult(&res); !errors.Is(err, ErrReqIDMismatch) {
		t.Fatalf("read after poison = %v, want ErrReqIDMismatch", err)
	}
	<-done
}

// TestClientUnknownReqIDPoisons proves a response id the client never
// queued poisons the connection — a payload is never attributed to the
// wrong request.
func TestClientUnknownReqIDPoisons(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := NewClient(b, time.Second)

	syn := synPattern(64, 2)
	go func() {
		r := NewReader(a)
		_, _, _ = r.ReadFrame()
		res := Result{Status: StatusOK, Correction: syn, Observables: gf2.NewVec(0)}
		_, _ = a.Write(AppendResult(nil, 0, 1, 999, &res))
	}()

	c.QueueDecode(1, 5, syn)
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var res Result
	SizeResult(&res, 64, 0)
	if _, err := c.ReadResult(&res); !errors.Is(err, ErrReqIDMismatch) {
		t.Fatalf("unknown id error = %v, want ErrReqIDMismatch", err)
	}
	if c.Err() == nil {
		t.Fatal("client did not poison on unknown req id")
	}
}

// TestRedialerBackoff proves the reconnect schedule: no pause on the
// first attempt, then 25ms doubling to the 1s cap, each jittered into
// [0.5b, 1.5b).
func TestRedialerBackoff(t *testing.T) {
	d := &Redialer{Addr: "127.0.0.1:1", Seed: 7}
	if b := d.Backoff(); b != 0 {
		t.Fatalf("fresh backoff = %v, want 0", b)
	}
	for want, fails := 25*time.Millisecond, 1; fails <= 9; fails++ {
		d.fails = fails
		b := d.Backoff()
		lo, hi := want/2, want+want/2
		if b < lo || b >= hi {
			t.Fatalf("fails=%d backoff %v outside [%v, %v)", fails, b, lo, hi)
		}
		want = min(2*want, time.Second)
	}
	// A live dial failure grows the counter; success resets it.
	d.fails = 0
	if _, err := d.Dial(); err == nil {
		t.Fatal("dial to port 1 succeeded")
	}
	if d.Fails() != 1 {
		t.Fatalf("fails after failed dial = %d, want 1", d.Fails())
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			defer c.Close()
			buf := make([]byte, 1)
			_, _ = c.Read(buf)
		}
	}()
	d.Addr = ln.Addr().String()
	c, err := d.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if d.Fails() != 0 {
		t.Fatalf("fails after success = %d, want 0", d.Fails())
	}
}

// replayConn is an in-memory peer that answers every flush with the
// same canned response bytes: Write discards the request and rewinds
// the read side. Nothing in it allocates, so testing.AllocsPerRun over
// a client on top of it counts the client alone.
type replayConn struct {
	scriptConn
	resp []byte
}

func (c *replayConn) Write(p []byte) (int, error) {
	c.in.Reset(c.resp)
	return len(p), nil
}

// TestClientPipelineAllocFree pins the in-flight FIFO at zero
// allocations per pipelined request: 8 traced frames queued, flushed
// and read back, over and over on one connection. Popping the FIFO by
// re-slicing its head forward threw the capacity away and cost four
// allocations per cycle (the queue re-growing 1 → 2 → 4 → 8), which was
// all of the socket workloads' allocs_per_syn 0.5.
func TestClientPipelineAllocFree(t *testing.T) {
	const frames = 8
	syn := synPattern(72, 3)
	ok := Result{Status: StatusOK, Correction: synPattern(36, 2), Observables: gf2.NewVec(12)}
	conn := &replayConn{scriptConn: scriptConn{in: bytes.NewReader(nil)}}
	for id := uint64(1); id <= frames; id++ {
		ok.ServerTiming = ServerTiming{WorkerID: 1, DecodeNs: 1000, ServerTick: int64(id)}
		conn.resp = AppendResult(conn.resp, 0, 1, id, &ok)
	}
	c := NewClient(conn, 0)
	var res Result
	SizeResult(&res, 36, 12)
	var st ServerTiming
	cycle := func() {
		for id := uint64(1); id <= frames; id++ {
			c.QueueDecodeTraced(1, id, syn, TraceContext{TraceID: id})
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= frames; id++ {
			h, timed, err := c.ReadResultTimed(&res, &st)
			if err != nil || h.ReqID != id || !timed || st.ServerTick != int64(id) {
				t.Fatalf("response %d: id %d timed %v tick %d err %v", id, h.ReqID, timed, st.ServerTick, err)
			}
		}
		if len(c.pending) != 0 {
			t.Fatalf("pending = %d after a full cycle", len(c.pending))
		}
	}
	cycle() // warm-up: write buffer, read buffer and FIFO grow to the pipeline depth once
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("%v allocations per %d-frame pipelined request, want 0", avg, frames)
	}
}
