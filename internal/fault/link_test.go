package fault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}(c)
		}
	}()
	return ln.Addr().String(), func() {
		_ = ln.Close()
		<-done
	}
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	return c
}

func TestPassThrough(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := Start(addr, Plan{Seed: 1})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer p.Close()

	c := dialProxy(t, p)
	defer c.Close()
	msg := []byte("hello through the proxy")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q != %q", got, msg)
	}
	if p.Counters.Ops.Load() != 1 {
		t.Fatalf("conns = %d, want 1", p.Counters.Ops.Load())
	}
}

// TestCorruptDeterministic proves the offset corruption schedule
// replays exactly across two independent proxies with the same seed.
func TestCorruptDeterministic(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()

	run := func() []byte {
		p, err := Start(addr, Plan{Seed: 42, FaultEvery: 64, Mix: map[Kind]float64{Corrupt: 1}})
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		defer p.Close()
		c := dialProxy(t, p)
		defer c.Close()
		out := make([]byte, 4096) // zeros: any flipped byte is visible
		if _, err := c.Write(out); err != nil {
			t.Fatalf("write: %v", err)
		}
		got := make([]byte, len(out))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatalf("read: %v", err)
		}
		if p.Counters.Of(Corrupt) == 0 {
			t.Fatalf("no corruption injected over %d bytes", len(out))
		}
		return got
	}

	a, b := run(), run()
	if bytes.Equal(a, make([]byte, len(a))) {
		t.Fatalf("stream came back clean despite corruption plan")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different corruption patterns")
	}
}

// TestReset proves a Crash fault severs the stream mid-pipeline: the
// client sees an error (RST or EOF) before the full echo arrives.
func TestReset(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := Start(addr, Plan{Seed: 7, FaultEvery: 256, Mix: map[Kind]float64{Crash: 1}})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer p.Close()

	c := dialProxy(t, p)
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64<<10)
	_, _ = c.Write(buf)
	n, rerr := io.ReadFull(c, buf)
	if rerr == nil && n == len(buf) {
		t.Fatalf("full echo arrived despite reset plan")
	}
	if p.Counters.Of(Crash) == 0 {
		t.Fatalf("no reset injected")
	}
}

// TestBlackholePhase proves the scripted blackhole swallows bytes
// silently (reads stall) and the link heals when the phase ends.
func TestBlackholePhase(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := Start(addr, Plan{
		Seed:   3,
		Phases: []Phase{{Kind: Blackhole, For: 300 * time.Millisecond}},
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer p.Close()

	c := dialProxy(t, p)
	defer c.Close()
	msg := []byte("lost then found")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	// During the blackhole the echo must NOT arrive.
	_ = c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	one := make([]byte, 1)
	if _, err := c.Read(one); err == nil {
		t.Fatalf("read succeeded during blackhole phase")
	} else if nerr := net.Error(nil); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("read error during blackhole = %v, want timeout", err)
	}
	if p.Counters.Of(Blackhole) == 0 {
		t.Fatalf("blackhole discarded nothing")
	}
	// After the phase the link heals; a fresh message round-trips.
	for p.Kind() != Pass {
		time.Sleep(10 * time.Millisecond)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("post-heal echo mismatch: %q", got)
	}
}

// TestSlowModeDelays proves a slow phase adds at least SlowFor per chunk.
func TestSlowModeDelays(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := Start(addr, Plan{Seed: 5, SlowFor: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer p.Close()
	p.SetKind(Slow)

	c := dialProxy(t, p)
	defer c.Close()
	start := time.Now()
	msg := []byte("slow boat")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	// Request and echo each cross the slow link once: >= 2*SlowFor.
	if el := time.Since(start); el < 100*time.Millisecond {
		t.Fatalf("slow round trip took %v, want >= 100ms", el)
	}
}

// TestCloseReleasesGoroutines proves Close reaps every pump and the
// accept/phase loops even with live connections.
func TestCloseReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	addr, stop := echoServer(t)
	p, err := Start(addr, Plan{
		Seed:   9,
		Phases: []Phase{{Kind: Pass, For: time.Hour}},
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	conns := make([]net.Conn, 0, 4)
	for i := 0; i < 4; i++ {
		conns = append(conns, dialProxy(t, p))
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, c := range conns {
		_ = c.Close()
	}
	stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), base)
}

// TestOffsetFaultsIgnoreChunking forwards the same 1 000 bytes under a
// corrupt phase as 1 chunk and as 10, then 4 000 bytes in pass: the
// phase flips one byte per chunk, but the offset faults after it must
// land on the same bytes either way. They once moved, because the
// phase drew its byte from the offset stream's rng.
func TestOffsetFaultsIgnoreChunking(t *testing.T) {
	const head, tail = 1000, 4000
	run := func(chunks int) []byte {
		p := newProxy(Plan{Seed: 1, FaultEvery: 64, Mix: map[Kind]float64{Corrupt: 1}})
		dst, peer := net.Pipe()
		defer dst.Close()
		got := make(chan []byte, 1)
		go func() {
			b := make([]byte, head+tail)
			_, _ = io.ReadFull(peer, b) // a short read shows as a mismatch
			got <- b
		}()
		fs := newLinkStream(p, dst, 0)
		p.SetKind(Corrupt)
		b := make([]byte, head)
		for i := 0; i < chunks; i++ {
			if err := fs.forward(b[i*head/chunks : (i+1)*head/chunks]); err != nil {
				t.Fatal(err)
			}
		}
		p.SetKind(Pass)
		if err := fs.forward(make([]byte, tail)); err != nil {
			t.Fatal(err)
		}
		return (<-got)[head:]
	}
	one, ten := run(1), run(10)
	if bytes.Equal(one, make([]byte, tail)) {
		t.Fatal("no offset fault landed after the corrupt phase")
	}
	for i := range one {
		if one[i] != ten[i] {
			t.Fatalf("byte %d after the phase: %#x in one chunk, %#x in ten", head+i, one[i], ten[i])
		}
	}
}
