package fault

import (
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is a deterministic TCP fault injector on a loopback port that
// forwards to a fixed target. It composes two fault systems:
//
//   - Offset faults (Plan.FaultEvery, Plan.Mix): Slow, Crash, Corrupt
//     or Tear at byte offsets each direction draws from its own stream,
//     id 2·conn+dir, so the schedule depends on the plan and the
//     connection-accept order, not on how the kernel chunks the stream.
//   - Wall-clock phases (Plan.Phases, or SetKind): Pass, Slow, Corrupt
//     or Blackhole applied to every chunk on every connection at once,
//     modelling link-level incidents such as partitions.
type Proxy struct {
	plan Plan
	mix  *mix
	ln   net.Listener
	kind atomic.Uint32
	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// Counters counts accepted connections as Ops.
	Counters Counters
	// Phases counts the scheduled phases entered so far.
	Phases atomic.Uint64
}

// Start listens on 127.0.0.1:0 and proxies every accepted connection
// to target under plan until Close.
func Start(target string, plan Plan) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := newProxy(plan)
	p.ln = ln
	p.wg.Add(1)
	go p.acceptLoop(target)
	if len(p.plan.Phases) > 0 {
		p.wg.Add(1)
		go p.phaseLoop()
	}
	return p, nil
}

func newProxy(plan Plan) *Proxy {
	if plan.SlowFor <= 0 {
		plan.SlowFor = 20 * time.Millisecond
	}
	if plan.TearPause <= 0 {
		plan.TearPause = 2 * time.Millisecond
	}
	return &Proxy{
		plan:  plan,
		mix:   newMix(plan.Mix),
		done:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// Addr returns the proxy's listen address ("127.0.0.1:port").
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Kind returns the kind currently applied to every chunk.
func (p *Proxy) Kind() Kind { return Kind(p.kind.Load()) }

// SetKind applies k to every chunk on every connection from now on.
// Scheduled phases overwrite it at their next transition.
func (p *Proxy) SetKind(k Kind) { p.kind.Store(uint32(k)) }

// Close stops accepting, severs every proxied connection and waits for
// every goroutine to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		_ = c.Close() // best-effort: pump exit also closes
	}
	p.mu.Unlock()
	close(p.done)
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) phaseLoop() {
	defer p.wg.Done()
	for _, ph := range p.plan.Phases {
		p.SetKind(ph.Kind)
		p.Phases.Add(1)
		if !p.sleep(ph.For) {
			return
		}
	}
	p.SetKind(Pass)
}

// sleep pauses for d; it reports false if the proxy closes first.
func (p *Proxy) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.done:
		return false
	}
}

func (p *Proxy) acceptLoop(target string) {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		backend, err := net.Dial("tcp", target)
		if err != nil {
			_ = client.Close() // best-effort: target unreachable
			continue
		}
		if !p.track(client, backend) {
			hardClose(client)
			hardClose(backend)
			return
		}
		conn := p.Counters.Ops.Add(1) - 1
		p.wg.Add(2)
		// Each pump exits when either conn closes; Close severs both.
		go p.pump(client, backend, 2*conn)
		go p.pump(backend, client, 2*conn+1)
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
// of an orderly FIN — the link's Crash fault.
func hardClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0) // best-effort: plain close still severs
	}
	_ = c.Close() // best-effort: already closed is fine
}

// pump copies src→dst through the fault stream of direction id
// (2·conn for client→backend, 2·conn+1 for backend→client).
func (p *Proxy) pump(src, dst net.Conn, id uint64) {
	defer p.wg.Done()
	fs := newLinkStream(p, dst, id)
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
			}
			_ = src.Close() // best-effort
			p.untrack(src)
			return
		}
	}
}

// linkStream carries one direction's deterministic fault state.
type linkStream struct {
	p        *Proxy
	dst      net.Conn
	rng      *rand.Rand // offsets and their kinds
	chunkRng *rand.Rand // the byte a corrupt phase flips in each chunk
	off      uint64     // forwarded bytes so far
	next     uint64     // absolute offset of the next offset fault
	nextKind Kind
}

func newLinkStream(p *Proxy, dst net.Conn, id uint64) *linkStream {
	fs := &linkStream{
		p:   p,
		dst: dst,
		rng: newStream(p.plan.Seed, id),
		// A stream of its own, so the number of chunks a corrupt phase
		// sees cannot shift the offset schedule.
		chunkRng: newStream(p.plan.Seed, id|1<<63),
	}
	fs.draw()
	return fs
}

// draw schedules the next offset fault, counted from the previous one.
func (fs *linkStream) draw() {
	every := fs.p.plan.FaultEvery
	if every <= 0 {
		fs.next = ^uint64(0)
		return
	}
	fs.next += max(1, uint64(every/2)+fs.rng.Uint64N(uint64(every)))
	fs.nextKind = fs.p.mix.draw(fs.rng)
}

// errSevered tells the pump to hard-close both sides: a Crash fault,
// or the proxy closing mid-pause.
var errSevered = errors.New("fault: link severed")

// forward applies the current phase and the offset faults inside b
// while writing b to dst. A non-nil return means the pair is dead.
func (fs *linkStream) forward(b []byte) error {
	p := fs.p
	switch k := p.Kind(); k {
	case Blackhole:
		p.Counters.add(k)
		return nil
	case Slow:
		p.Counters.add(k)
		if !p.sleep(p.plan.SlowFor) {
			return errSevered
		}
	case Corrupt:
		b[fs.chunkRng.IntN(len(b))] ^= 0xFF
		p.Counters.add(k)
	}
	for fs.next < fs.off+uint64(len(b)) {
		cut, k := int(fs.next-fs.off), fs.nextKind
		fs.draw()
		pause := p.plan.SlowFor
		switch k {
		case Corrupt:
			b[cut] ^= 0xFF
			p.Counters.add(k)
			continue
		case Tear:
			pause = p.plan.TearPause
		case Slow, Crash:
		default:
			continue
		}
		if err := fs.write(b[:cut]); err != nil {
			return err
		}
		b = b[cut:]
		p.Counters.add(k)
		if k == Crash || !p.sleep(pause) {
			return errSevered
		}
	}
	return fs.write(b)
}

// write forwards b to dst.
func (fs *linkStream) write(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	n, err := fs.dst.Write(b)
	fs.off += uint64(n)
	return err
}
