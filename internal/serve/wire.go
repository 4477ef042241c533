package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
	"vegapunk/internal/wire"
)

// maxWirePipeline bounds how many pipelined decode frames one
// connection read coalesces into a single submit wave (the service's
// micro-batcher re-batches across connections anyway).
const maxWirePipeline = 64

// wireWriteTimeout bounds one response write so a wedged client cannot
// pin a connection handler forever.
const wireWriteTimeout = time.Minute

// ServeWire accepts binary wire-protocol connections on l until
// Shutdown: the persistent-connection hot path that replaces JSON
// framing with raw syndrome/correction words (see internal/wire). Each
// connection is served by one goroutine; pipelined decode frames are
// submitted together so they coalesce into the same micro-batch.
func (s *Server) ServeWire(l net.Listener) error {
	s.wireMu.Lock()
	s.wireLs = append(s.wireLs, l)
	s.wireMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.wireDraining.Load() {
				return nil
			}
			return err
		}
		s.wireConnsTotal.Add(1)
		s.wireConnsOpen.Add(1)
		s.wireMu.Lock()
		s.wireConns[conn] = struct{}{}
		s.wireMu.Unlock()
		s.wireWG.Add(1)
		go func() {
			defer s.wireWG.Done()
			s.handleWireConn(conn)
			s.wireMu.Lock()
			delete(s.wireConns, conn)
			s.wireMu.Unlock()
			s.wireConnsOpen.Add(-1)
		}()
	}
}

// ListenAndServeWire binds addr and serves the wire protocol until
// Shutdown.
func (s *Server) ListenAndServeWire(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeWire(l)
}

// SetWireDraining toggles the soft drain flag: while set, every wire
// response and pong carries wire.FlagDraining so routers stop picking
// this replica, but connections stay open and requests keep being
// served — the rolling-restart half of "drain gracefully". Shutdown
// performs the hard half (stop accepting, close connections).
func (s *Server) SetWireDraining(v bool) { s.wireDraining.Store(v) }

// shutdownWire stops the wire listeners and drains their connections:
// in-flight batches finish (their responses carry the drain flag),
// idle reads are interrupted, and any connection still alive when ctx
// expires is force-closed.
func (s *Server) shutdownWire(ctx context.Context) {
	s.wireDraining.Store(true)
	// Snapshot under the lock, close outside it: Close/SetReadDeadline
	// are syscalls and must not run while wireMu is held — a stalled
	// socket teardown would stall every accept and handler exit too
	// (the lock-blocking contract).
	s.wireMu.Lock()
	ls := s.wireLs
	s.wireLs = nil
	conns := make([]net.Conn, 0, len(s.wireConns))
	for c := range s.wireConns {
		conns = append(conns, c)
	}
	s.wireMu.Unlock()
	for _, l := range ls {
		_ = l.Close() // best-effort: double close on repeated Shutdown is fine
	}
	// Interrupt idle blocking reads; handlers then observe the drain
	// flag and exit after flushing their current batch.
	for _, c := range conns {
		_ = c.SetReadDeadline(time.Now()) // best-effort: a broken conn is already on its way out
	}

	done := make(chan struct{})
	//vegapunk:goroutine(Server.shutdownWire) drain watcher: unblocks when the last conn handler calls wireWG.Done; shutdownWire always receives done before returning
	go func() {
		s.wireWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.wireMu.Lock()
		conns = conns[:0]
		for c := range s.wireConns {
			conns = append(conns, c)
		}
		s.wireMu.Unlock()
		for _, c := range conns {
			_ = c.Close() // best-effort: force close at deadline
		}
		<-done
	}
}

// wireModel is a connection-scoped model binding: the service plus the
// per-lane scratch that keeps the steady state allocation-free.
type wireModel struct {
	svc   *Service
	syns  []gf2.Vec // lane syndrome scratch, grown to the pipeline depth once
	lanes []wireLane
}

// wireLane tracks one pipelined decode frame through submit/wait.
type wireLane struct {
	reqID  uint64
	req    *request
	status wire.Status
	res    Result
	// traced marks a lane whose request carried the telemetry
	// extension; its result answers with the server-timing block.
	traced bool
	tc     wire.TraceContext
}

// wireCtx is a reusable deadline-only context for wire submissions:
// Deadline drives the service's budget shedding, while Done stays nil
// so a submitted request is always collected by its lane (the decoder
// watchdog, not client cancellation, bounds the wait). Reusing one
// instance per connection keeps the hot path allocation-free.
type wireCtx struct{ dl time.Time }

func (c *wireCtx) Deadline() (time.Time, bool) { return c.dl, !c.dl.IsZero() }
func (c *wireCtx) Done() <-chan struct{}       { return nil }
func (c *wireCtx) Err() error                  { return nil }
func (c *wireCtx) Value(any) any               { return nil }

// wireConnState is the per-connection handler state.
type wireConnState struct {
	conn   net.Conn
	r      *wire.Reader
	wbuf   []byte
	models []*wireModel
	ctx    wireCtx
	wres   wire.Result
}

// wireHealthFlags derives the health bits a response for svc carries:
// breaker state and degradation tier from the service, the drain flag
// from the server.
func (s *Server) wireHealthFlags(svc *Service, now int64) wire.Flags {
	var f wire.Flags
	if svc != nil {
		if svc.breaker.open(now) {
			f |= wire.FlagBreakerOpen
		}
		if svc.Tier() > core.TierFull {
			f |= wire.FlagDegraded
		}
	}
	if s.wireDraining.Load() {
		f |= wire.FlagDraining
	}
	return f
}

// errClass is one row of the service-error table both front ends
// answer from: the wire status, and the HTTP status, Retry-After header
// and message, that a terminal decode error maps to.
type errClass struct {
	err        error
	wire       wire.Status
	http       int
	retryAfter bool
	msg        string // "" reports the error's own text
}

// errClasses has one row per exported Err* sentinel of the package
// (TestErrClassesCoverSentinels), plus the caller's own deadline.
var errClasses = [...]errClass{
	{context.DeadlineExceeded, wire.StatusTimeout, http.StatusGatewayTimeout, false, "decode deadline exceeded"},
	{ErrDeadlineBudget, wire.StatusShed, http.StatusGatewayTimeout, false, "request shed: deadline budget below p99 decode latency"},
	{ErrCircuitOpen, wire.StatusOverload, http.StatusServiceUnavailable, true, "circuit breaker open after repeated decoder faults, retry later"},
	{ErrClosed, wire.StatusOverload, http.StatusServiceUnavailable, true, "service draining"},
	{ErrDecoderFault, wire.StatusDecoderFault, http.StatusInternalServerError, false, "decoder fault; instance quarantined, retry may succeed"},
}

// classify returns the table row for a non-nil decode error; anything
// unlisted is an internal error.
func classify(err error) errClass {
	for _, c := range errClasses {
		if errors.Is(err, c.err) {
			return c
		}
	}
	return errClass{wire: wire.StatusInternal, http: http.StatusInternalServerError}
}

// handleWireConn runs one connection: hello resolves model keys to
// connection-scoped ids, decode frames batch through the service, and
// pings answer with health flags. Request-level failures (unknown key,
// bad syndrome) answer with an error status and keep the connection;
// protocol-level failures (bad magic, oversize frame) close it.
func (s *Server) handleWireConn(conn net.Conn) {
	defer func() {
		_ = conn.Close() // best-effort: the peer may already be gone
	}()
	st := &wireConnState{conn: conn, r: wire.NewReader(conn)}
	var (
		h       wire.Header
		payload []byte
		err     error
		pending bool
	)
	for {
		if !pending {
			h, payload, err = st.r.ReadFrame()
			if err != nil {
				if wire.IsProtocolError(err) {
					s.wireProtoErrors.Add(1)
					st.wbuf = wire.AppendError(st.wbuf[:0], s.wireHealthFlags(nil, obs.Tick()), 0,
						wire.StatusBadRequest, err.Error())
					_ = st.write() // best-effort: the conn is terminal either way
				}
				return
			}
		}
		pending = false
		switch h.Op {
		case wire.OpHello:
			if err := s.wireHello(st, h, payload); err != nil {
				return
			}
		case wire.OpPing:
			st.wbuf = wire.AppendPong(st.wbuf[:0], s.wireHealthFlags(nil, obs.Tick()), h.ReqID)
			if err := st.write(); err != nil {
				return
			}
		case wire.OpDecode:
			h, payload, pending, err = s.wireDecodeBatch(st, h, payload)
			if err != nil {
				return
			}
		default:
			s.wireProtoErrors.Add(1)
			st.wbuf = wire.AppendError(st.wbuf[:0], s.wireHealthFlags(nil, obs.Tick()), h.ReqID,
				wire.StatusBadRequest, "unexpected opcode")
			_ = st.write() // best-effort: closing after protocol error
			return
		}
	}
}

// wireHello resolves a model key to a new connection-scoped id.
func (s *Server) wireHello(st *wireConnState, h wire.Header, payload []byte) error {
	key := string(payload)
	svc, ok := s.Service(key)
	if !ok {
		st.wbuf = wire.AppendError(st.wbuf[:0], s.wireHealthFlags(nil, obs.Tick()), h.ReqID,
			wire.StatusUnknownModel, "unknown model key (resolve via GET /v1/models)")
		return st.write()
	}
	if len(st.models) >= 1<<16 {
		st.wbuf = wire.AppendError(st.wbuf[:0], s.wireHealthFlags(nil, obs.Tick()), h.ReqID,
			wire.StatusBadRequest, "model id space exhausted on this connection")
		return st.write()
	}
	id := uint16(len(st.models))
	st.models = append(st.models, &wireModel{svc: svc})
	m := svc.Model()
	st.wbuf = wire.AppendHelloAck(st.wbuf[:0], s.wireHealthFlags(svc, obs.Tick()), id, h.ReqID,
		m.NumDet, m.NumMech(), m.NumObs)
	return st.write()
}

// wireDecodeBatch reads the run of pipelined decode frames for one
// model, submits them together (so they share a micro-batch), waits
// for every lane's terminal outcome and writes all responses in one
// conn write. It returns the first non-matching frame, if one was
// pulled off the reader, for the caller to process next.
//
//vegapunk:hotpath
func (s *Server) wireDecodeBatch(st *wireConnState, h wire.Header, payload []byte) (nh wire.Header, np []byte, pending bool, err error) {
	if int(h.ModelID) >= len(st.models) {
		s.wireDecodes.Add(1)
		// Health flags ride every response, including request-level errors:
		// the router's passive health tracking must not be starved just
		// because a client sent a bad model id while the replica drains.
		st.wbuf = wire.AppendError(st.wbuf[:0], s.wireHealthFlags(nil, obs.Tick()), h.ReqID, //vegapunk:allow(alloc) error path: unknown model id
			wire.StatusUnknownModel, "model id not resolved on this connection") //vegapunk:allow(alloc) error path
		return wire.Header{}, nil, false, st.write()
	}
	m := st.models[h.ModelID]
	mid := h.ModelID
	var readErr error
	k := 0
	for {
		s.wireDecodes.Add(1)
		m.grow(k + 1)
		lane := &m.lanes[k]
		lane.reqID = h.ReqID
		lane.req = nil
		lane.status = wire.StatusOK
		lane.traced = h.Flags&wire.FlagTelemetry != 0
		lane.tc = wire.TraceContext{}
		if tc, perr := wire.ParseDecodeTracedInto(m.syns[k], h.Flags, payload); perr != nil {
			lane.status = wire.StatusBadRequest
		} else {
			lane.tc = tc
			st.ctx.dl = time.Now().Add(s.cfg.RequestTimeout) //vegapunk:allow(time) request deadline needs wall clock, once per lane
			req, serr := m.svc.submitTraced(&st.ctx, m.syns[k], wireTrace{id: tc.TraceID, sampled: tc.Sampled})
			if serr != nil {
				lane.status = classify(serr).wire
			} else {
				lane.req = req
			}
		}
		k++
		if k >= maxWirePipeline || !st.r.FrameBuffered() {
			break
		}
		h, payload, readErr = st.r.ReadFrame()
		if readErr != nil {
			break // finish the batch; the caller closes the conn after
		}
		if h.Op != wire.OpDecode || int(h.ModelID) >= len(st.models) || st.models[h.ModelID] != m {
			pending = true
			break
		}
	}

	// Collect every submitted lane — each admitted request has exactly
	// one terminal outcome — then respond in arrival order.
	flags := s.wireHealthFlags(m.svc, obs.Tick())
	st.wbuf = st.wbuf[:0]
	for i := 0; i < k; i++ {
		lane := &m.lanes[i]
		if lane.req != nil {
			if werr := m.svc.wait(&st.ctx, lane.req, &lane.res); werr != nil {
				lane.status = classify(werr).wire
			}
		}
		st.wres.Status = lane.status
		if lane.status == wire.StatusOK {
			res := &lane.res
			st.wres.Tier = uint8(res.Tier)
			st.wres.Satisfied = res.Satisfied
			st.wres.BPIters = uint32(res.Stats.BPIters)
			st.wres.QueueWaitNs = res.QueueWaitNs
			st.wres.DecodeNs = res.DecodeNs
			st.wres.CopyOutNs = res.CopyOutNs
			st.wres.Correction = res.Correction
			st.wres.Observables = res.Observables
		}
		if lane.traced {
			// A traced request always answers with the server-timing
			// block (zeros on a failed lane) plus the replica's clock
			// reading, which the router folds into its per-connection
			// offset estimate.
			tm := wire.ServerTiming{ServerTick: obs.Tick()}
			if lane.status == wire.StatusOK {
				res := &lane.res
				tm.Tier = uint8(res.Tier)
				tm.WorkerID = res.WorkerID
				tm.QueueWaitNs = res.QueueWaitNs
				tm.BatchAssembleNs = res.BatchAssembleNs
				tm.DecodeNs = res.DecodeNs
				tm.CopyOutNs = res.CopyOutNs
			}
			st.wbuf = wire.AppendResultTimed(st.wbuf, flags, mid, lane.reqID, &st.wres, &tm)
		} else {
			st.wbuf = wire.AppendResult(st.wbuf, flags, mid, lane.reqID, &st.wres)
		}
	}
	if werr := st.write(); werr != nil {
		return wire.Header{}, nil, false, werr
	}
	if readErr != nil {
		if wire.IsProtocolError(readErr) {
			s.wireProtoErrors.Add(1)
		}
		return wire.Header{}, nil, false, readErr
	}
	return h, payload, pending, nil
}

// grow sizes the lane scratch for at least n lanes.
func (m *wireModel) grow(n int) {
	for len(m.lanes) < n {
		m.lanes = append(m.lanes, wireLane{})                   //vegapunk:allow(alloc) lane scratch grows to pipeline depth once per connection
		m.syns = append(m.syns, gf2.NewVec(m.svc.model.NumDet)) //vegapunk:allow(alloc) lane scratch grows to pipeline depth once per connection
	}
}

// write flushes the response buffer in one conn write.
//
//vegapunk:hotpath
func (st *wireConnState) write() error {
	if len(st.wbuf) == 0 {
		return nil
	}
	if err := st.conn.SetWriteDeadline(time.Now().Add(wireWriteTimeout)); err != nil { //vegapunk:allow(time) write deadline needs wall clock, once per flush
		return err
	}
	_, err := st.conn.Write(st.wbuf)
	return err
}
