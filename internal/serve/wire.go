package serve

import (
	"context"
	"errors"
	"net"

	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
	"vegapunk/internal/wire"
)

// ServeWire accepts binary wire-protocol connections on l until
// Shutdown: the only way a decode reaches the server, as raw
// syndrome/correction words over persistent connections. The accept/drain
// lifecycle and the frame loop are wire.Server's; this file supplies
// only the replica's handler (wireConn, wireModel): pipelined decode
// frames of one run are submitted together so they coalesce into the
// same micro-batch.
func (s *Server) ServeWire(l net.Listener) error { return s.wire.Serve(l) }

// ListenAndServeWire binds addr and serves the wire protocol until
// Shutdown.
func (s *Server) ListenAndServeWire(addr string) error { return s.wire.ListenAndServe(addr) }

// SetWireDraining toggles the soft drain flag: while set, every wire
// response and pong carries wire.FlagDraining so routers stop picking
// this replica, but connections stay open and requests keep being
// served — the rolling-restart half of "drain gracefully". Shutdown
// performs the hard half (stop accepting, close connections).
func (s *Server) SetWireDraining(v bool) { s.wire.SetDraining(v) }

// wireConn is the replica's wire.Handler: one per connection, holding
// the scratch its bindings share.
type wireConn struct {
	s    *Server
	wres wire.Result
}

// wireModel is a connection-scoped model binding (wire.Binding): the
// service plus the per-lane scratch that keeps the steady state
// allocation-free.
type wireModel struct {
	c     *wireConn
	svc   *Service
	syns  []gf2.Vec // lane syndrome scratch, grown to the pipeline depth once
	lanes []wireLane
	n     int // lanes taken in the current run
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

// errClass is one row of the service-error table: the wire status a
// terminal decode error answers with.
type errClass struct {
	err  error
	wire wire.Status
}

// errClasses has one row per exported Err* sentinel of the package
// (TestErrClassesCoverSentinels).
var errClasses = [...]errClass{
	{ErrClosed, wire.StatusOverload},
	{ErrDecoderFault, wire.StatusDecoderFault},
}

// classify returns the wire status for a non-nil decode error; anything
// unlisted is an internal error.
func classify(err error) wire.Status {
	for _, c := range errClasses {
		if errors.Is(err, c.err) {
			return c.wire
		}
	}
	return wire.StatusInternal
}

// Hello resolves a model key in the registry.
func (c *wireConn) Hello(key string) (wire.Binding, wire.Status, string) {
	svc, ok := c.s.Service(key)
	if !ok {
		return nil, wire.StatusUnknownModel, "unknown model key (resolve via GET /v1/models)"
	}
	return &wireModel{c: c, svc: svc}, wire.StatusOK, ""
}

// Close has nothing to release: lanes are collected before every write.
func (c *wireConn) Close() {}

func (m *wireModel) Dims() (numDet, numMech, numObs int) {
	dm := m.svc.Model()
	return dm.NumDet, dm.NumMech(), dm.NumObs
}

// Decode parses one frame of the run into the next lane and submits it;
// the lanes of a run are all submitted before EndRun waits on any, so
// they share a micro-batch.
func (m *wireModel) Decode(flags wire.Flags, reqID uint64, payload []byte) {
	c := m.c
	c.s.wireDecodes.Add(1)
	m.grow(m.n + 1)
	k := m.n
	m.n++
	lane := &m.lanes[k]
	lane.reqID = reqID
	lane.req = nil
	lane.status = wire.StatusOK
	lane.traced = flags&wire.FlagTelemetry != 0
	lane.tc = wire.TraceContext{}
	tc, perr := wire.ParseDecodeTracedInto(m.syns[k], flags, payload)
	if perr != nil {
		lane.status = wire.StatusBadRequest
		return
	}
	lane.tc = tc
	// Wire submissions carry no deadline and are never cancelled: every
	// submitted request is collected by its lane, and the decoder
	// watchdog, not the client, bounds the wait.
	req, serr := m.svc.submitTraced(context.Background(), m.syns[k], wireTrace{id: tc.TraceID, sampled: tc.Sampled})
	if serr != nil {
		lane.status = classify(serr)
		return
	}
	lane.req = req
}

// EndRun collects every submitted lane — each admitted request has
// exactly one terminal outcome — and appends the responses in arrival
// order. The health flags are read once the lanes are collected, so a
// run that finishes during a drain answers with FlagDraining.
func (m *wireModel) EndRun(buf []byte, mid uint16) []byte {
	c := m.c
	for i := 0; i < m.n; i++ {
		lane := &m.lanes[i]
		if lane.req != nil {
			if werr := m.svc.wait(context.Background(), lane.req, &lane.res); werr != nil {
				lane.status = classify(werr)
			}
		}
	}
	flags := c.s.wire.Flags()
	for i := 0; i < m.n; i++ {
		lane := &m.lanes[i]
		c.wres.Status = lane.status
		if lane.status == wire.StatusOK {
			res := &lane.res
			c.wres.Satisfied = res.Satisfied
			c.wres.BPIters = uint32(res.Stats.BPIters)
			c.wres.QueueWaitNs = res.QueueWaitNs
			c.wres.DecodeNs = res.DecodeNs
			c.wres.CopyOutNs = res.CopyOutNs
			c.wres.Correction = res.Correction
			c.wres.Observables = res.Observables
		}
		if lane.traced {
			// A traced request always answers with the server-timing
			// block (zeros on a failed lane) plus the replica's clock
			// reading, which the router folds into its per-connection
			// offset estimate.
			tm := wire.ServerTiming{ServerTick: obs.Tick()}
			if lane.status == wire.StatusOK {
				res := &lane.res
				tm.WorkerID = res.WorkerID
				tm.QueueWaitNs = res.QueueWaitNs
				tm.BatchAssembleNs = res.BatchAssembleNs
				tm.DecodeNs = res.DecodeNs
				tm.CopyOutNs = res.CopyOutNs
			}
			buf = wire.AppendResultTimed(buf, flags, mid, lane.reqID, &c.wres, &tm)
		} else {
			buf = wire.AppendResult(buf, flags, mid, lane.reqID, &c.wres)
		}
	}
	m.n = 0
	return buf
}

// grow sizes the lane scratch for at least n lanes.
func (m *wireModel) grow(n int) {
	for len(m.lanes) < n {
		m.lanes = append(m.lanes, wireLane{})
		m.syns = append(m.syns, gf2.NewVec(m.svc.model.NumDet))
	}
}
