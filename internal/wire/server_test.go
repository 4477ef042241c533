package wire

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"vegapunk/internal/gf2"
)

// scriptConn is an in-memory net.Conn: reads replay a fixed byte script
// and then report EOF, writes accumulate. serveConn over it runs to
// completion on the calling goroutine, so tests are deterministic and
// the whole script is visible to FrameBuffered at once.
type scriptConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// stubHandler resolves every key not starting with '!' and records what
// the loop hands it: the request ids of all Decode calls in order, the
// size of every run, and how often Close ran.
type stubHandler struct {
	decoded []uint64
	runs    []int
	closed  int
	current *stubBinding // binding with an open run, if any
	broken  string       // first contract violation seen
}

type stubBinding struct {
	h   *stubHandler
	run []uint64
}

func (h *stubHandler) Hello(key string) (Binding, Status, string) {
	if strings.HasPrefix(key, "!") {
		return nil, StatusUnknownModel, "stub refuses " + key
	}
	return &stubBinding{h: h}, StatusOK, ""
}

func (h *stubHandler) Close() {
	h.closed++
	if h.current != nil {
		h.broken = "Close with a run still open"
	}
}

func (b *stubBinding) Dims() (int, int, int) { return 72, 36, 12 }

func (b *stubBinding) Decode(reqID uint64, _ []byte) {
	if b.h.current != nil && b.h.current != b {
		b.h.broken = "Decode while another binding's run is open"
	}
	b.h.current = b
	b.run = append(b.run, reqID)
	b.h.decoded = append(b.h.decoded, reqID)
}

func (b *stubBinding) EndRun(buf []byte, id uint16) []byte {
	if b.h.current != b {
		b.h.broken = "EndRun without an open run"
	}
	b.h.current = nil
	b.h.runs = append(b.h.runs, len(b.run))
	for _, reqID := range b.run {
		buf = AppendFrame(buf, OpResult, 0, id, reqID, []byte{byte(StatusOK)})
	}
	b.run = b.run[:0]
	return buf
}

// reply is what a conformance script observes of one response frame.
type reply struct {
	Op     Op
	Status Status // OpResult and OpError only
	ReqID  uint64
}

// serveScript runs script through the shared loop with a stub handler
// and returns the handler, the response frames and the endpoint.
func serveScript(t testing.TB, script []byte) (*stubHandler, []Header, []reply, *Server) {
	t.Helper()
	h := &stubHandler{}
	s := NewServer(func() Handler { return h })
	conn := &scriptConn{in: bytes.NewReader(script)}
	s.serveConn(conn)
	if h.broken != "" {
		t.Fatalf("handler contract: %s", h.broken)
	}
	if h.closed != 1 {
		t.Fatalf("handler closed %d times, want 1", h.closed)
	}
	var hs []Header
	var rs []reply
	r := NewReader(&conn.out)
	for {
		fh, payload, err := r.ReadFrame()
		if err != nil {
			if conn.out.Len() != 0 || IsProtocolError(err) {
				t.Fatalf("server wrote an unparseable stream: %v", err)
			}
			return h, hs, rs, s
		}
		rp := reply{Op: fh.Op, ReqID: fh.ReqID}
		if fh.Op == OpResult || fh.Op == OpError {
			if rp.Status, err = PeekStatus(payload); err != nil {
				t.Fatalf("response %d: %v", len(rs), err)
			}
		}
		hs = append(hs, fh)
		rs = append(rs, rp)
	}
}

func decodeFrame(buf []byte, id uint16, reqID uint64) []byte {
	return AppendDecode(buf, id, reqID, gf2.NewVec(72))
}

// TestServeConnRuns pins how the loop cuts pipelined decode frames into
// runs and what it answers around them.
func TestServeConnRuns(t *testing.T) {
	hello := AppendHello(nil, 1, "m")
	t.Run("65 frames split 64+1", func(t *testing.T) {
		script := append([]byte{}, hello...)
		for i := 0; i < 65; i++ {
			script = decodeFrame(script, 0, uint64(100+i))
		}
		h, _, rs, _ := serveScript(t, script)
		if !reflect.DeepEqual(h.runs, []int{64, 1}) {
			t.Fatalf("runs = %v, want [64 1]", h.runs)
		}
		if len(rs) != 66 || rs[0].Op != OpHelloAck || rs[65].ReqID != 164 {
			t.Fatalf("got %d replies, last %+v", len(rs), rs[len(rs)-1])
		}
	})
	t.Run("other model id ends the run and is answered next", func(t *testing.T) {
		script := append(append([]byte{}, hello...), AppendHello(nil, 2, "m")...)
		script = decodeFrame(script, 0, 10)
		script = decodeFrame(script, 0, 11)
		script = decodeFrame(script, 1, 12)
		script = AppendPing(script, 13)
		script = decodeFrame(script, 0, 14)
		h, hs, rs, _ := serveScript(t, script)
		if !reflect.DeepEqual(h.runs, []int{2, 1, 1}) {
			t.Fatalf("runs = %v, want [2 1 1]", h.runs)
		}
		want := []reply{{OpHelloAck, 0, 1}, {OpHelloAck, 0, 2}, {OpResult, 0, 10}, {OpResult, 0, 11},
			{OpResult, 0, 12}, {OpPong, 0, 13}, {OpResult, 0, 14}}
		if !reflect.DeepEqual(rs, want) {
			t.Fatalf("replies = %+v\nwant %+v", rs, want)
		}
		if hs[1].ModelID != 1 || hs[4].ModelID != 1 || hs[0].Flags != 0 {
			t.Fatalf("hello acks / results carry ids %d,%d flags %v", hs[1].ModelID, hs[4].ModelID, hs[0].Flags)
		}
	})
	t.Run("corrupt header mid-run finishes the run then closes", func(t *testing.T) {
		script := append([]byte{}, hello...)
		for i := 0; i < 3; i++ {
			script = decodeFrame(script, 0, uint64(i+1))
		}
		script = append(script, bytes.Repeat([]byte{0xff}, HeaderSize)...)
		script = AppendPing(script, 9) // never reached
		h, _, rs, s := serveScript(t, script)
		if !reflect.DeepEqual(h.runs, []int{3}) || len(rs) != 4 || rs[3] != (reply{OpResult, StatusOK, 3}) {
			t.Fatalf("runs %v, replies %+v", h.runs, rs)
		}
		if s.ProtocolErrors() != 1 {
			t.Fatalf("protocol errors = %d, want 1", s.ProtocolErrors())
		}
	})
	t.Run("request-level errors keep the connection", func(t *testing.T) {
		script := AppendHello(nil, 1, "!nope")
		script = decodeFrame(script, 3, 2) // id never resolved
		script = AppendPing(script, 3)
		script = AppendFrame(script, OpPong, 0, 0, 4, nil) // not a client opcode: closes
		script = AppendPing(script, 5)
		h, _, rs, s := serveScript(t, script)
		want := []reply{{OpError, StatusUnknownModel, 1}, {OpError, StatusUnknownModel, 2},
			{OpPong, 0, 3}, {OpError, StatusBadRequest, 4}}
		if !reflect.DeepEqual(rs, want) || len(h.decoded) != 0 {
			t.Fatalf("replies = %+v (decoded %v)\nwant %+v", rs, h.decoded, want)
		}
		if s.ProtocolErrors() != 1 {
			t.Fatalf("protocol errors = %d, want 1", s.ProtocolErrors())
		}
	})
}

// TestServeConnModelIDSpace: ids are uint16 on the wire, so the 65 537th
// hello on one connection is refused instead of aliasing id 0 — for
// every tier, since the table lives in the loop.
func TestServeConnModelIDSpace(t *testing.T) {
	var script []byte
	for i := 0; i <= maxModels; i++ {
		script = AppendHello(script, uint64(i), "m")
	}
	script = decodeFrame(script, maxModels-1, 7)
	_, hs, rs, _ := serveScript(t, script)
	if len(rs) != maxModels+2 {
		t.Fatalf("got %d replies, want %d", len(rs), maxModels+2)
	}
	for i := 0; i < maxModels; i++ {
		if rs[i].Op != OpHelloAck || int(hs[i].ModelID) != i {
			t.Fatalf("hello %d: %+v id %d", i, rs[i], hs[i].ModelID)
		}
	}
	if rs[maxModels] != (reply{OpError, StatusBadRequest, maxModels}) {
		t.Fatalf("hello %d: %+v, want a bad-request refusal", maxModels+1, rs[maxModels])
	}
	if rs[maxModels+1] != (reply{OpResult, StatusOK, 7}) || hs[maxModels+1].ModelID != maxModels-1 {
		t.Fatalf("decode on the last id: %+v", rs[maxModels+1])
	}
}

// TestServerDrainLifecycle covers the listener half over a real socket:
// counters, the soft drain flag on pongs, and Shutdown interrupting an
// idle read.
func TestServerDrainLifecycle(t *testing.T) {
	s := NewServer(func() Handler { return &stubHandler{} })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()

	c, err := Dial(l.Addr().String(), time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if flags, err := c.Ping(); err != nil || flags != 0 {
		t.Fatalf("ping: flags=%v err=%v", flags, err)
	}
	if s.Accepted() != 1 || s.Open() != 1 {
		t.Fatalf("accepted=%d open=%d, want 1/1", s.Accepted(), s.Open())
	}
	s.SetDraining(true)
	if flags, err := c.Ping(); err != nil || flags != FlagDraining {
		t.Fatalf("ping while draining: flags=%v err=%v", flags, err)
	}
	s.SetDraining(false)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
	if s.Open() != 0 || !s.Draining() {
		t.Fatalf("after Shutdown: open=%d draining=%v", s.Open(), s.Draining())
	}
	if _, err := c.Ping(); err == nil {
		t.Fatal("ping after shutdown: want error")
	}
}

// stallListener is a listener whose Close parks until release is
// closed: a socket teardown that stalls.
type stallListener struct {
	net.Listener
	closing, release chan struct{}
}

func (l *stallListener) Close() error {
	close(l.closing)
	<-l.release
	return l.Listener.Close()
}

// TestShutdownClosesOutsideLock: Shutdown snapshots the listeners and
// connections under the endpoint's lock and closes them after releasing
// it, so a stalled listener Close does not stall a connection's exit,
// which takes that lock to untrack itself.
func TestShutdownClosesOutsideLock(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &stallListener{Listener: inner, closing: make(chan struct{}), release: make(chan struct{})}
	s := NewServer(func() Handler { return &stubHandler{} })
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()

	c, err := Dial(inner.Addr().String(), time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	<-l.closing
	_ = c.Close() // the server reads EOF and its connection goroutine exits

	deadline := time.Now().Add(5 * time.Second)
	for s.Open() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	open := s.Open()
	close(l.release)
	if open != 0 {
		t.Errorf("connection exit stalled behind a listener Close: %d still open", open)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
}

// FuzzServeConn throws arbitrary bytes at the shared loop: it must
// never panic, always terminate, keep the handler contract (runs of at
// most maxPipeline frames, never interleaved, closed exactly once) and
// answer every decode frame it handed the handler with exactly one
// response frame, in order, on a stream that parses cleanly.
func FuzzServeConn(f *testing.F) {
	// FuzzWireParseCorrupt's corpus, each behind a hello so decode
	// frames reach the handler.
	hello := AppendHello(nil, 1, "m")
	syn := gf2.NewVec(72)
	syn.Set(3, true)
	res := Result{Status: StatusOK, Correction: syn, Observables: gf2.NewVec(12)}
	traced := AppendDecodeTraced(nil, 0, 2, syn, TraceContext{TraceID: 99, Sampled: true})
	pipe, bounds, _ := flipPipeline()
	seeds := [][]byte{
		AppendDecode(nil, 0, 2, syn),
		AppendResult(nil, 0, 1, 2, &res),
		{},
		bytes.Repeat([]byte{0xff}, 64),
		traced,
		traced[:len(traced)-4],
		AppendResult(nil, 0, 1, 2, &Result{Status: StatusDecoderFault, ServerTiming: ServerTiming{ServerTick: 9}}),
		append(AppendPing(AppendHello(nil, 3, "!x"), 4), pipe...),
	}
	for _, off := range []int{bounds[1].start, 16, bounds[1].start + HeaderSize + 3, bounds[2].start + 8} {
		flipped := append([]byte{}, pipe...)
		flipped[off] ^= 0xFF
		seeds = append(seeds, flipped)
	}
	for _, s := range seeds {
		f.Add(append(append(append([]byte{}, hello...), AppendHello(nil, 2, "m")...), s...))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		h, _, rs, _ := serveScript(t, script)
		var answered []uint64
		for _, r := range rs {
			if r.Op == OpResult {
				answered = append(answered, r.ReqID)
			}
		}
		if !reflect.DeepEqual(answered, h.decoded) {
			t.Fatalf("decode frames %v answered as %v", h.decoded, answered)
		}
		for _, n := range h.runs {
			if n < 1 || n > maxPipeline {
				t.Fatalf("run of %d frames", n)
			}
		}
	})
}
