// Package netfault is the network-layer counterpart of
// internal/faultinject: a deterministic, seeded in-process TCP fault
// proxy that sits between the router and a replica (or between any
// client and server) and injects the failure modes real links exhibit —
// latency spikes, bandwidth throttling, torn writes at arbitrary byte
// offsets, single-byte corruption, silent blackholes/partitions, and
// mid-stream RSTs. The cluster tier's network-chaos suite and the CI
// network-chaos smoke use it to prove the hardened wire/cluster layers
// keep the exactly-one-terminal-outcome invariant under each class.
//
// Two orthogonal fault systems compose:
//
//   - Byte-offset faults (Plan.FaultEvery + kind weights): each proxied
//     direction draws fault offsets and kinds from its own PCG stream
//     seeded with (Plan.Seed, 2*conn+dir), so a fixed plan plus a fixed
//     connection-accept order replays the exact same byte-level fault
//     schedule — the property that makes chaos failures debuggable.
//   - Wall-clock phases (Plan.Script): a scripted mode schedule
//     (pass → blackhole → corrupt → slow …) that models link-level
//     incidents such as partitions. Phases apply to all connections at
//     once and the proxy returns to ModePass after the last phase.
package netfault

import (
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is the link-level state applied to every connection by the
// phase script (or manually via SetMode).
type Mode int32

// Link modes.
const (
	// ModePass forwards bytes untouched (byte-offset faults still apply).
	ModePass Mode = iota
	// ModeSlow delays every forwarded chunk by Plan.SlowFor — a
	// congested or lossy link with retransmit stalls.
	ModeSlow
	// ModeCorrupt flips one byte in every forwarded chunk.
	ModeCorrupt
	// ModeBlackhole silently discards all bytes in both directions: the
	// TCP connections stay open but nothing moves — a partition as seen
	// by the endpoints (reads stall until their deadlines fire).
	ModeBlackhole
)

// String names the mode for logs and the proxy CLI.
func (m Mode) String() string {
	switch m {
	case ModePass:
		return "pass"
	case ModeSlow:
		return "slow"
	case ModeCorrupt:
		return "corrupt"
	case ModeBlackhole:
		return "blackhole"
	default:
		return "unknown"
	}
}

// ParseMode inverts String; it reports false for unknown names.
func ParseMode(s string) (Mode, bool) {
	switch s {
	case "pass":
		return ModePass, true
	case "slow":
		return ModeSlow, true
	case "corrupt":
		return ModeCorrupt, true
	case "blackhole":
		return ModeBlackhole, true
	default:
		return 0, false
	}
}

// Kind identifies one byte-offset fault drawn from a direction's PCG
// stream when the forwarded byte count crosses the next fault offset.
type Kind uint8

// Byte-offset fault kinds.
const (
	// KindCorrupt XORs the byte at the fault offset with 0xFF — a
	// single-bit-rot / bad-NIC frame that desyncs a length-prefixed
	// stream parser.
	KindCorrupt Kind = iota
	// KindTear splits the write at the fault offset and pauses
	// Plan.TearPause between the halves — a torn write that lands a
	// partial frame on the peer's read deadline.
	KindTear
	// KindReset forwards up to the fault offset then hard-closes both
	// sides with SO_LINGER=0, surfacing ECONNRESET mid-pipeline.
	KindReset
	// KindLatency stalls Plan.SlowFor at the fault offset — a one-off
	// latency spike rather than a sustained slow link.
	KindLatency
)

// Phase is one entry in the wall-clock mode script.
type Phase struct {
	Mode Mode
	For  time.Duration
}

// Plan configures a Proxy. The zero value forwards everything
// untouched; withDefaults fills the timing knobs.
type Plan struct {
	// Seed keys every per-direction PCG stream.
	Seed uint64
	// FaultEvery is the mean forwarded-byte gap between byte-offset
	// faults per direction (offsets are drawn uniformly from
	// [FaultEvery/2, 3*FaultEvery/2)). 0 disables byte-offset faults.
	FaultEvery int
	// Kind weights at each fault offset. All zero defaults to
	// corrupt-only.
	WCorrupt, WTear, WReset, WLatency int
	// SlowFor is the stall applied by KindLatency and per chunk by
	// ModeSlow (default 20ms).
	SlowFor time.Duration
	// TearPause separates the two halves of a torn write (default 2ms).
	TearPause time.Duration
	// ThrottleBps caps each direction's forwarding rate in bytes/sec.
	// 0 = unlimited.
	ThrottleBps int
	// Script is the wall-clock phase schedule; the proxy returns to
	// ModePass after the last phase. Empty = no schedule.
	Script []Phase
}

func (p Plan) withDefaults() Plan {
	if p.SlowFor <= 0 {
		p.SlowFor = 20 * time.Millisecond
	}
	if p.TearPause <= 0 {
		p.TearPause = 2 * time.Millisecond
	}
	if p.WCorrupt == 0 && p.WTear == 0 && p.WReset == 0 && p.WLatency == 0 {
		p.WCorrupt = 1
	}
	return p
}

// Counters accumulate injected-fault totals across all connections.
// All fields are atomics; read with atomic loads or Snapshot.
type Counters struct {
	Conns      atomic.Uint64 // accepted client connections
	Forwarded  atomic.Uint64 // bytes forwarded (both directions)
	Discarded  atomic.Uint64 // bytes swallowed by ModeBlackhole
	Corrupts   atomic.Uint64 // bytes flipped (offset faults + ModeCorrupt chunks)
	Tears      atomic.Uint64 // torn writes
	Resets     atomic.Uint64 // mid-stream RSTs
	Latencies  atomic.Uint64 // latency stalls (offset faults + ModeSlow chunks)
	PhaseFlips atomic.Uint64 // script phase transitions
}

// Snapshot returns a plain-value copy for test assertions and logs.
func (c *Counters) Snapshot() (conns, forwarded, discarded, corrupts, tears, resets, latencies uint64) {
	return c.Conns.Load(), c.Forwarded.Load(), c.Discarded.Load(),
		c.Corrupts.Load(), c.Tears.Load(), c.Resets.Load(), c.Latencies.Load()
}

// Proxy is a deterministic TCP fault injector listening on a loopback
// port and forwarding to a fixed target address.
type Proxy struct {
	target string
	plan   Plan
	ln     net.Listener
	mode   atomic.Int32
	done   chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	connIdx atomic.Uint64

	Counters Counters
}

// Start listens on 127.0.0.1:0 and proxies every accepted connection
// to target under plan. Close releases the listener, all proxied
// connections and the pump goroutines.
func Start(target string, plan Plan) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		target: target,
		plan:   plan.withDefaults(),
		ln:     ln,
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	if len(p.plan.Script) > 0 {
		p.wg.Add(1)
		go p.phaseLoop()
	}
	return p, nil
}

// Addr returns the proxy's listen address ("127.0.0.1:port").
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Mode returns the current link mode.
func (p *Proxy) Mode() Mode { return Mode(p.mode.Load()) }

// SetMode switches the link mode for all connections immediately.
// Scripted phases overwrite it at their next transition.
func (p *Proxy) SetMode(m Mode) { p.mode.Store(int32(m)) }

// Close stops accepting, severs every proxied connection and waits for
// all pump goroutines to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	snapshot := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		snapshot = append(snapshot, c)
	}
	p.mu.Unlock()
	close(p.done)
	err := p.ln.Close()
	for _, c := range snapshot {
		_ = c.Close() // best-effort: pump exit also closes
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) phaseLoop() {
	defer p.wg.Done()
	for _, ph := range p.plan.Script {
		p.SetMode(ph.Mode)
		p.Counters.PhaseFlips.Add(1)
		if !p.sleep(ph.For) {
			return
		}
	}
	p.SetMode(ModePass)
}

// sleep pauses for d but wakes immediately when the proxy closes; it
// reports false in that case so callers can abandon their work.
func (p *Proxy) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.done:
		return false
	}
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		backend, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = client.Close() // best-effort: target unreachable
			continue
		}
		if !p.track(client, backend) {
			hardClose(client)
			hardClose(backend)
			return
		}
		idx := p.connIdx.Add(1) - 1
		p.Counters.Conns.Add(1)
		p.wg.Add(2)
		// Each pump exits when either conn closes; Close severs both.
		go p.pump(client, backend, idx, 0)
		go p.pump(backend, client, idx, 1)
	}
}

func (p *Proxy) track(client, backend net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[client] = struct{}{}
	p.conns[backend] = struct{}{}
	return true
}

func (p *Proxy) untrack(conns ...net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range conns {
		delete(p.conns, c)
	}
}

// hardClose closes c with SO_LINGER=0 so the peer sees an RST instead
// of an orderly FIN — the mid-stream reset fault class.
func hardClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0) // best-effort: plain close still severs
	}
	_ = c.Close() // best-effort: already closed is fine
}

// pump copies src→dst through the fault stream for one direction.
// dir is 0 for client→backend, 1 for backend→client; together with the
// connection index it keys the direction's private PCG stream.
func (p *Proxy) pump(src, dst net.Conn, idx uint64, dir uint64) {
	defer p.wg.Done()
	fs := newFaultStream(p, src, dst, idx, dir)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if err := fs.forward(buf[:n]); err != nil {
				hardClose(src)
				hardClose(dst)
				p.untrack(src, dst)
				return
			}
		}
		if rerr != nil {
			// Half-close: propagate EOF so the peer can finish reading
			// buffered responses; the opposite pump severs fully.
			if tc, ok := dst.(*net.TCPConn); ok {
				_ = tc.CloseWrite() // best-effort: peer may be gone
			} else {
				_ = dst.Close() // best-effort
			}
			_ = src.Close() // best-effort
			p.untrack(src)
			return
		}
	}
}

// faultStream carries one direction's deterministic fault state.
type faultStream struct {
	p        *Proxy
	src, dst net.Conn
	rng      *rand.Rand
	off      uint64 // forwarded bytes so far
	next     uint64 // absolute offset of the next byte-offset fault
	nextKind Kind
	wtotal   int
}

func newFaultStream(p *Proxy, src, dst net.Conn, idx, dir uint64) *faultStream {
	fs := &faultStream{
		p:   p,
		src: src,
		dst: dst,
		rng: rand.New(rand.NewPCG(p.plan.Seed, 2*idx+dir)),
	}
	fs.wtotal = p.plan.WCorrupt + p.plan.WTear + p.plan.WReset + p.plan.WLatency
	fs.draw()
	return fs
}

// draw schedules the next byte-offset fault. Offsets advance
// monotonically from the previous fault point, so the schedule depends
// only on the seed — not on how the kernel chunked the stream.
func (fs *faultStream) draw() {
	every := fs.p.plan.FaultEvery
	if every <= 0 {
		fs.next = ^uint64(0)
		return
	}
	gap := uint64(every/2) + fs.rng.Uint64N(uint64(every))
	if gap == 0 {
		gap = 1
	}
	fs.next += gap
	w := fs.rng.IntN(fs.wtotal)
	switch {
	case w < fs.p.plan.WCorrupt:
		fs.nextKind = KindCorrupt
	case w < fs.p.plan.WCorrupt+fs.p.plan.WTear:
		fs.nextKind = KindTear
	case w < fs.p.plan.WCorrupt+fs.p.plan.WTear+fs.p.plan.WReset:
		fs.nextKind = KindReset
	default:
		fs.nextKind = KindLatency
	}
}

// errReset is returned by forward when a KindReset fault severed the
// connection pair; the pump exits without further closing.
type resetError struct{}

func (resetError) Error() string { return "netfault: injected RST" }

// forward applies the current mode and any byte-offset faults falling
// inside b, then writes the (possibly mutated, split or delayed) bytes
// to dst. A non-nil return means the connection pair is dead.
func (fs *faultStream) forward(b []byte) error {
	p := fs.p
	switch p.Mode() {
	case ModeBlackhole:
		p.Counters.Discarded.Add(uint64(len(b)))
		return nil // swallow silently; the link "exists" but moves nothing
	case ModeSlow:
		p.Counters.Latencies.Add(1)
		if !p.sleep(p.plan.SlowFor) {
			return resetError{}
		}
	case ModeCorrupt:
		b[fs.rng.IntN(len(b))] ^= 0xFF
		p.Counters.Corrupts.Add(1)
	}
	// Byte-offset faults: handle every fault point that falls inside
	// this chunk, splitting the write around tears/latency/resets.
	for fs.next < fs.off+uint64(len(b)) {
		cut := int(fs.next - fs.off)
		switch fs.nextKind {
		case KindCorrupt:
			b[cut] ^= 0xFF
			p.Counters.Corrupts.Add(1)
			fs.draw()
		case KindTear:
			if err := fs.write(b[:cut]); err != nil {
				return err
			}
			b = b[cut:]
			p.Counters.Tears.Add(1)
			fs.draw()
			if !p.sleep(p.plan.TearPause) {
				return resetError{}
			}
		case KindLatency:
			if err := fs.write(b[:cut]); err != nil {
				return err
			}
			b = b[cut:]
			p.Counters.Latencies.Add(1)
			fs.draw()
			if !p.sleep(p.plan.SlowFor) {
				return resetError{}
			}
		case KindReset:
			if err := fs.write(b[:cut]); err != nil {
				return err
			}
			p.Counters.Resets.Add(1)
			fs.draw()
			hardClose(fs.src)
			hardClose(fs.dst)
			p.untrack(fs.src, fs.dst)
			return resetError{}
		}
	}
	return fs.write(b)
}

// write forwards b to dst, applying the bandwidth throttle.
func (fs *faultStream) write(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if _, err := fs.dst.Write(b); err != nil {
		return err
	}
	fs.off += uint64(len(b))
	fs.p.Counters.Forwarded.Add(uint64(len(b)))
	if bps := fs.p.plan.ThrottleBps; bps > 0 {
		d := time.Duration(float64(len(b)) / float64(bps) * float64(time.Second))
		if !fs.p.sleep(d) {
			return resetError{}
		}
	}
	return nil
}
