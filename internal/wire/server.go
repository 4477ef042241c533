package wire

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxPipeline bounds how many pipelined decode frames one connection
// read coalesces into a single run (the replica's micro-batcher
// re-batches across connections anyway).
const maxPipeline = 64

// writeTimeout bounds one response write so a wedged client cannot pin
// a connection goroutine forever.
const writeTimeout = time.Minute

// maxModels is the connection-scoped model-id space: ids travel as a
// uint16, so one more binding would alias an earlier one.
const maxModels = 1 << 16

// Handler is the tier-specific half of one served connection (the
// replica resolves keys in its registry, the router through a backend
// replica). It sees neither frames nor listeners: the Server owns the
// read loop, pipelining, the model-id table and every write. All calls
// for one connection come from that connection's goroutine.
type Handler interface {
	// Hello resolves a model key. A nil Binding answers the client with
	// an OpError of the returned status and message; the connection
	// stays usable either way.
	Hello(key string) (Binding, Status, string)
	// Close releases the connection's resources, once, after its last
	// frame.
	Close()
}

// Binding is one resolved model on one connection. The Server feeds it
// runs of pipelined decode frames: one Decode per frame, then EndRun.
type Binding interface {
	// Dims fills the hello ack: the model's detector, mechanism and
	// observable counts.
	Dims() (numDet, numMech, numObs int)
	// Decode takes the next frame of the current run. payload aliases
	// the read buffer and is valid only during the call.
	Decode(flags Flags, reqID uint64, payload []byte)
	// EndRun appends exactly one response frame, addressed to id, per
	// Decode call since the previous EndRun, in arrival order.
	EndRun(buf []byte, id uint16) []byte
}

// Server is the serving endpoint of the protocol: the listener
// lifecycle (accept, track, drain) and the per-connection frame loop,
// shared by the replica and the router.
type Server struct {
	newHandler func() Handler

	mu    sync.Mutex
	ls    []net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	draining    atomic.Bool
	accepted    atomic.Uint64
	open        atomic.Int64
	protoErrors atomic.Uint64
}

// NewServer builds an endpoint that serves every accepted connection
// with its own handler from newHandler.
func NewServer(newHandler func() Handler) *Server {
	return &Server{newHandler: newHandler, conns: map[net.Conn]struct{}{}}
}

// Serve accepts connections on l until Shutdown, one goroutine each.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.ls = append(s.ls, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.accepted.Add(1)
		s.open.Add(1)
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			s.open.Add(-1)
		}()
	}
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// SetDraining toggles the soft drain flag: while set, every frame the
// endpoint originates carries FlagDraining (and handlers fold Draining
// into theirs) so routers stop picking this peer, but connections stay
// open and requests keep being served. Shutdown is the hard half.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports the drain flag.
func (s *Server) Draining() bool { return s.draining.Load() }

// Accepted counts connections accepted since start.
func (s *Server) Accepted() uint64 { return s.accepted.Load() }

// Open counts connections currently being served.
func (s *Server) Open() int64 { return s.open.Load() }

// ProtocolErrors counts connections terminated by a protocol error.
func (s *Server) ProtocolErrors() uint64 { return s.protoErrors.Load() }

// Shutdown stops the listeners and drains their connections: runs in
// flight finish (their responses carry the drain flag), idle reads are
// interrupted, and any connection still alive when ctx expires is
// force-closed, which Shutdown reports as ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Snapshot under the lock, close outside it: Close/SetReadDeadline
	// are syscalls and must not run while mu is held — a stalled socket
	// teardown would stall every accept and handler exit too
	// (TestShutdownClosesOutsideLock).
	s.mu.Lock()
	ls := s.ls
	s.ls = nil
	conns := s.snapshotLocked(nil)
	s.mu.Unlock()
	for _, l := range ls {
		_ = l.Close() // best-effort: double close on repeated Shutdown is fine
	}
	// Interrupt idle blocking reads; a loop inside a run finishes and
	// answers it first, then fails its next read the same way.
	for _, c := range conns {
		_ = c.SetReadDeadline(time.Now()) // best-effort: a broken conn is already on its way out
	}

	done := make(chan struct{})
	// Both returns below receive done first, so the watcher never outlives Shutdown.
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	conns = s.snapshotLocked(conns[:0])
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close() // best-effort: force close at deadline
	}
	<-done
	return ctx.Err()
}

// snapshotLocked appends the tracked connections to buf; mu is held.
func (s *Server) snapshotLocked(buf []net.Conn) []net.Conn {
	for c := range s.conns {
		buf = append(buf, c)
	}
	return buf
}

// Flags are the health bits every frame the endpoint sends carries:
// the drain flag, or none.
func (s *Server) Flags() Flags {
	if s.draining.Load() {
		return FlagDraining
	}
	return 0
}

// serverConn is the state of one served connection.
type serverConn struct {
	srv    *Server
	conn   net.Conn
	r      *Reader
	wbuf   []byte
	h      Handler
	models []Binding // indexed by connection-scoped model id
}

// serveConn runs one connection to its end: hello binds model keys to
// connection-scoped ids, decode frames go to their binding in runs, and
// pings answer with the health flags. Request-level failures (unknown
// key, unresolved id) answer with an error status and keep the
// connection; protocol-level failures (bad magic, oversize frame,
// unexpected opcode) answer once and close it.
func (s *Server) serveConn(conn net.Conn) {
	c := &serverConn{srv: s, conn: conn, r: NewReader(conn), h: s.newHandler()}
	defer func() {
		_ = conn.Close() // best-effort: the peer may already be gone
		c.h.Close()
	}()
	var (
		h       Header
		payload []byte
		err     error
		pending bool
	)
	for {
		if !pending {
			h, payload, err = c.r.ReadFrame()
			if err != nil {
				if IsProtocolError(err) {
					s.protoErrors.Add(1)
					c.wbuf = AppendError(c.wbuf[:0], s.Flags(), 0, StatusBadRequest, err.Error())
					_ = c.write() // best-effort: the conn is terminal either way
				}
				return
			}
		}
		pending = false
		switch h.Op {
		case OpHello:
			err = c.hello(h.ReqID, string(payload))
		case OpPing:
			c.wbuf = AppendPong(c.wbuf[:0], s.Flags(), h.ReqID)
			err = c.write()
		case OpDecode:
			h, payload, pending, err = c.decodeRun(h, payload)
		default:
			s.protoErrors.Add(1)
			c.wbuf = AppendError(c.wbuf[:0], s.Flags(), h.ReqID, StatusBadRequest, "unexpected opcode")
			_ = c.write() // best-effort: closing after protocol error
			return
		}
		if err != nil {
			return
		}
	}
}

// hello binds key to the next connection-scoped model id.
func (c *serverConn) hello(reqID uint64, key string) error {
	if len(c.models) >= maxModels {
		c.wbuf = AppendError(c.wbuf[:0], c.srv.Flags(), reqID,
			StatusBadRequest, "model id space exhausted on this connection")
		return c.write()
	}
	b, status, msg := c.h.Hello(key)
	if b == nil {
		c.wbuf = AppendError(c.wbuf[:0], c.srv.Flags(), reqID, status, msg)
		return c.write()
	}
	id := uint16(len(c.models))
	c.models = append(c.models, b)
	det, mech, nobs := b.Dims()
	c.wbuf = AppendHelloAck(c.wbuf[:0], c.srv.Flags(), id, reqID, det, mech, nobs)
	return c.write()
}

// decodeRun hands the run of pipelined decode frames for one model id
// to its binding (so the replica submits them into one micro-batch and
// the router forwards them as one batch) and writes all its responses
// in one conn write. It returns the first non-matching frame, if one
// was pulled off the reader, for the caller to process next. A read
// error mid-run still finishes and answers the run; the caller closes
// the connection after.
func (c *serverConn) decodeRun(h Header, payload []byte) (nh Header, np []byte, pending bool, err error) {
	id := h.ModelID
	if int(id) >= len(c.models) {
		// Health flags ride every response, including request-level
		// errors: a router's passive health tracking must not be starved
		// just because a client sent a bad model id while the peer drains.
		c.wbuf = AppendError(c.wbuf[:0], c.srv.Flags(), h.ReqID,
			StatusUnknownModel, "model id not resolved on this connection")
		return Header{}, nil, false, c.write()
	}
	b := c.models[id]
	var readErr error
	for k := 1; ; k++ {
		b.Decode(h.Flags, h.ReqID, payload)
		if k >= maxPipeline || !c.r.FrameBuffered() {
			break
		}
		h, payload, readErr = c.r.ReadFrame()
		if readErr != nil {
			break
		}
		if h.Op != OpDecode || h.ModelID != id {
			pending = true
			break
		}
	}
	c.wbuf = b.EndRun(c.wbuf[:0], id)
	if werr := c.write(); werr != nil {
		return Header{}, nil, false, werr
	}
	if readErr != nil {
		if IsProtocolError(readErr) {
			c.srv.protoErrors.Add(1)
		}
		return Header{}, nil, false, readErr
	}
	return h, payload, pending, nil
}

// write flushes the response buffer in one deadline-bounded conn write.
func (c *serverConn) write() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	if err := c.conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return err
	}
	_, err := c.conn.Write(c.wbuf)
	return err
}
