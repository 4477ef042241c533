package cluster

import (
	"errors"
	"net"

	"vegapunk/internal/obs"
	"vegapunk/internal/wire"
)

// feBinding is a client-connection-scoped model binding: the key, its
// shard hash, the model dimensions learned from the first backend
// hello, and the per-replica backend model-id cache. A cached id is
// valid only for the backend-connection generation it was resolved on
// (model ids are connection-scoped on the wire). It is the router's
// wire.Binding: runs gather into, and answer from, its connection's
// lanes.
type feBinding struct {
	f       *feConn
	key     string
	keyHash uint64
	det     int
	mech    int
	nobs    int
	beID    []int32
	beGen   []uint64
}

// feLane tracks one client decode request through forward/retry to its
// single terminal response.
type feLane struct {
	reqID uint64
	syn   []byte // copied request payload: survives reader reuse, enables retry
	op    wire.Op
	flags wire.Flags
	resp  []byte // terminal response payload; on an undone lane, the first replica's retryable answer or empty
	done  bool

	traceID uint64 // the trace block's id: the client's, or one the router issued
	sampled bool   // router records a forward span for this lane
}

// feConn is the router's wire.Handler for one client connection: it
// owns one backend connection per replica (lazily acquired from the
// replica pools) and relays frames without re-parsing vector payloads.
type feConn struct {
	rt      *Router
	bconns  []*wire.Client
	bgen    []uint64 // bumped when bconns[i] is replaced; invalidates cached model ids
	breconn []bool   // replica lost its backend conn to a fault; next dial counts as a reconnect
	lanes   []feLane
	n       int       // lanes gathered in the current run
	ring    *obs.Ring // router forward spans; single writer = this conn's goroutine
}

func newFEConn(rt *Router) *feConn {
	return &feConn{
		rt:      rt,
		bconns:  make([]*wire.Client, len(rt.replicas)),
		bgen:    make([]uint64, len(rt.replicas)),
		breconn: make([]bool, len(rt.replicas)),
		ring:    rt.acquireRing(),
	}
}

// Close returns the backend connections to their pools and the span
// ring to the router.
func (f *feConn) Close() {
	for i, c := range f.bconns {
		if c != nil {
			f.rt.replicas[i].release(c, true)
			f.bconns[i] = nil
		}
	}
	f.rt.releaseRing(f.ring)
}

// Hello resolves a model key through a backend replica: the client's
// id is connection-scoped to the client, the backend id to the backend
// connection (cached on the binding).
func (f *feConn) Hello(key string) (wire.Binding, wire.Status, string) {
	b := &feBinding{
		f:       f,
		key:     key,
		keyHash: hash64(key),
		beID:    make([]int32, len(f.rt.replicas)),
		beGen:   make([]uint64, len(f.rt.replicas)),
	}
	for i := range b.beID {
		b.beID[i] = -1
	}

	rep := f.rt.pick(b.keyHash, nil)
	_, err := f.backend(b, rep)
	if err != nil {
		// One retry on the next-best sibling, mirroring decode.
		if sib := f.rt.pick(b.keyHash, rep); sib != nil {
			f.rt.retries.Add(1)
			_, err = f.backend(b, sib)
		}
	}
	if err != nil {
		var se *wire.StatusError
		if errors.As(err, &se) {
			return nil, se.Status, se.Msg
		}
		f.rt.noReplica.Add(1)
		return nil, wire.StatusOverload, "no usable replica"
	}
	return b, wire.StatusOK, ""
}

func (b *feBinding) Dims() (numDet, numMech, numObs int) { return b.det, b.mech, b.nobs }

// backend returns a live backend connection to rep with the binding's
// model id resolved on it, dialing and helloing as needed.
func (f *feConn) backend(b *feBinding, rep *replica) (*wire.Client, error) {
	i := rep.idx
	c := f.bconns[i]
	if c == nil {
		var err error
		c, err = rep.acquire(&f.rt.cfg)
		if err != nil {
			return nil, err
		}
		if f.breconn[i] {
			f.rt.reconnects.Add(1)
			f.breconn[i] = false
		}
		f.bconns[i] = c
		f.bgen[i]++
	}
	if b.beID[i] < 0 || b.beGen[i] != f.bgen[i] {
		info, err := c.Hello(b.key)
		if err != nil {
			var se *wire.StatusError
			if errors.As(err, &se) {
				// Request-level refusal (config skew): the connection is
				// healthy, only this key is unresolvable here.
				return nil, err
			}
			f.failBackend(rep, err)
			return nil, err
		}
		b.beID[i] = int32(info.ID)
		b.beGen[i] = f.bgen[i]
		if b.mech == 0 && b.nobs == 0 {
			b.det, b.mech, b.nobs = info.NumDet, info.NumMech, info.NumObs
		}
	}
	return c, nil
}

// failBackend ends the connection to rep after err. A bad frame — one
// the reader rejects, or one that does not answer the request sent
// (wire.IsProtocolError) — means bytes were damaged in flight, not that
// the replica is down, so the replica keeps its state. Anything else
// (a read timeout, EOF, a reset) is a transport failure and demotes it.
func (f *feConn) failBackend(rep *replica, err error) {
	if wire.IsProtocolError(err) {
		f.rt.protoErrors.Add(1)
		f.abandonBackend(rep)
		return
	}
	f.dropBackend(rep)
}

// dropBackend discards the connection to rep after a transport failure
// and demotes the replica.
func (f *feConn) dropBackend(rep *replica) {
	f.abandonBackend(rep)
	rep.markDown()
}

// abandonBackend discards the connection to rep without demoting the
// replica; any late responses die with the connection, and the next
// dial counts as a reconnect. It ends a connection that sent a bad
// frame, and it is the hedge's loser cancellation: slow is not down,
// and marking the replica down would dogpile its whole key range onto
// the sibling.
func (f *feConn) abandonBackend(rep *replica) {
	i := rep.idx
	if c := f.bconns[i]; c != nil {
		rep.release(c, false)
		f.bconns[i] = nil
		f.breconn[i] = true
	}
}

// Decode copies one frame of the run out of the reader into the next
// lane.
func (b *feBinding) Decode(reqID uint64, payload []byte) {
	f := b.f
	f.growLanes(f.n + 1)
	ln := &f.lanes[f.n]
	f.n++
	ln.reqID = reqID
	ln.syn = append(ln.syn[:0], payload...)
	ln.resp = ln.resp[:0]
	ln.done = false
	f.armTrace(ln)
}

// EndRun forwards the gathered run to the rendezvous winner, retries
// undone lanes once on the next-best sibling, and answers every lane
// with exactly one terminal response in arrival order. A lane the
// retry could not settle relays the first replica's own answer; the
// router answers only the lanes no replica answered, and counts them.
// The run is forwarded on this connection's goroutine over its own
// backend connections, so it waits for no other connection's lanes.
func (b *feBinding) EndRun(buf []byte, clientID uint16) []byte {
	f := b.f
	lanes := f.lanes[:f.n]
	f.n = 0

	// First attempt on the rendezvous winner. A fired hedge leaves its
	// undone lanes for the sibling pass below — the hedge IS the retry,
	// pre-authorised by the hedge bucket.
	first := f.rt.pick(b.keyHash, nil)
	hedged := f.forward(b, first, lanes, false)
	if undone := countUndone(lanes); undone > 0 {
		if sib := f.rt.pick(b.keyHash, first); sib != nil {
			if !hedged {
				f.rt.retries.Add(uint64(undone))
			}
			f.forward(b, sib, lanes, true)
			if hedged {
				if won := undone - countUndone(lanes); won > 0 {
					f.rt.hedgeWins.Add(uint64(won))
				}
			}
		}
	}
	unanswered := 0
	for i := range lanes {
		ln := &lanes[i]
		if !ln.done && len(ln.resp) == 0 {
			unanswered++
			ln.op = wire.OpError
			ln.flags = f.rt.wire.Flags()
			ln.resp = appendErrPayload(ln.resp[:0], wire.StatusOverload, "no usable replica")
		}
		buf = wire.AppendFrame(buf, ln.op, ln.flags, clientID, ln.reqID, ln.resp)
	}
	if unanswered > 0 {
		f.rt.noReplica.Add(uint64(unanswered))
	}
	return buf
}

// armTrace reads a gathered lane's trace block. A client trace id
// relays untouched, and the router records a forward span under it
// when the client's sampled bit is set. A zero id gets a router-issued
// one, sampled by the client's bit or the router's lattice, written into
// the copied payload in place — once, here, so a retry re-sends the
// identical frame and the replica records its spans under the same id.
// A payload too short to hold a block relays untouched for the replica
// to reject.
func (f *feConn) armTrace(ln *feLane) {
	tc, ok := wire.PeekTraceContext(ln.syn)
	if ok && tc.TraceID == 0 {
		tc.TraceID = f.rt.tracer.NextID()
		tc.Sampled = tc.Sampled || f.rt.tracer.ShouldSample(tc.TraceID)
		wire.PutTraceContext(ln.syn, tc)
	}
	ln.traceID = tc.TraceID
	ln.sampled = tc.Sampled
}

// forward sends every undone lane to rep and reads exactly one response
// per sent lane, in order. Lanes answered with a retryable status stay
// undone, holding that answer, unless this is already the retry
// attempt. The first decoder fault of a forward extends rep's fault
// streak and suspends it for RetryAfterHint doubled per earlier
// faulting forward in the streak; a forward that reads every frame
// without one ends the streak. A failed write or
// read, or a bad frame, ends the attempt with the unanswered lanes
// undone (failBackend decides whether the replica is demoted). On a
// primary attempt with hedging configured, a first response slower
// than HedgeAfter abandons the connection (loser cancellation) and
// reports true — the caller re-sends the undone lanes to the sibling.
func (f *feConn) forward(b *feBinding, rep *replica, lanes []feLane, retried bool) (hedged bool) {
	c, err := f.backend(b, rep)
	if err != nil {
		var se *wire.StatusError
		if errors.As(err, &se) {
			// The replica refused the key itself: terminal per lane.
			for i := range lanes {
				ln := &lanes[i]
				if ln.done {
					continue
				}
				ln.op = wire.OpError
				ln.flags = f.rt.wire.Flags()
				if retried {
					ln.flags |= wire.FlagRetried
				}
				ln.resp = appendErrPayload(ln.resp[:0], se.Status, se.Msg)
				ln.done = true
			}
		}
		return false
	}
	beID := uint16(b.beID[rep.idx])
	n := 0
	for i := range lanes {
		ln := &lanes[i]
		if ln.done {
			continue
		}
		c.QueueFrame(wire.OpDecode, 0, beID, ln.reqID, ln.syn)
		n++
	}
	if n == 0 {
		return false
	}
	// flushTick opens every forward span for this batch. It is read
	// before the flush hands the frames to the kernel, so replica-side
	// work strictly follows it even if this goroutine is descheduled
	// right after the write syscall.
	flushTick := obs.Tick()
	if err := c.Flush(); err != nil {
		f.dropBackend(rep)
		return false
	}
	// Hedging applies to primary attempts only; each one earns the
	// bucket its fractional hedge token here.
	hedgeAfter := f.rt.cfg.HedgeAfter
	armed := !retried && hedgeAfter > 0
	if armed {
		f.rt.hedgeBucket.deposit(hedgeMaxRate)
	}
	var tm wire.ServerTiming
	faulted := false
	for i := range lanes {
		ln := &lanes[i]
		if ln.done {
			continue // answered by an earlier attempt, so not sent in this one
		}
		var rh wire.Header
		var rp []byte
		var rerr error
		if armed {
			// The hedge window covers time-to-first-response: one slow
			// head-of-line decode is the signal a congested link gives.
			armed = false
			rh, rp, rerr = c.ReadFrameTimeout(hedgeAfter)
			if rerr != nil && isNetTimeout(rerr) {
				now := obs.Tick()
				sib := f.rt.pick(b.keyHash, rep)
				if sib != nil && State(sib.state.Load()) == StateHealthy &&
					sib.suspendUntil.Load() <= now &&
					f.rt.hedgeBucket.take(1) {
					f.rt.hedges.Add(1)
					// A fired hedge is outlier ejection: deprioritise the
					// slow replica for RetryAfterHint so the next batches
					// route to the sibling directly instead of paying the
					// hedge window again on a link that is still slow.
					rep.suspend(now, f.rt.cfg.RetryAfterHint)
					f.abandonBackend(rep)
					return true
				}
				// No healthy sibling or out of hedge tokens: wait out
				// the full IO deadline on the primary. The header read
				// is non-destructive, so the stream is still framed.
				rh, rp, rerr = c.ReadFrame()
			}
		} else {
			rh, rp, rerr = c.ReadFrame()
		}
		if rerr != nil {
			f.failBackend(rep, rerr)
			return false
		}
		recvTick := obs.Tick()
		// The frame must answer this lane: a result or error frame with
		// the lane's request id and a valid status byte.
		status, perr := wire.PeekStatus(rp)
		if rh.Op != wire.OpResult && rh.Op != wire.OpError {
			perr = wire.ErrUnexpectedFrame
		} else if rh.ReqID != ln.reqID {
			perr = wire.ErrReqIDMismatch
		}
		if perr != nil {
			f.failBackend(rep, perr)
			return false
		}
		rep.observeFlags(rh.Flags)
		switch {
		case status == wire.StatusOverload:
			// Retry-After honoring: the replica asked for breathing
			// room; deprioritise it until the hint expires.
			rep.suspend(recvTick, f.rt.cfg.RetryAfterHint)
		case status == wire.StatusDecoderFault && !faulted:
			// The replica is replacing a faulty decoder. One that keeps
			// faulting is backed off longer each time, counted once per
			// forward so a batch of faulted lanes is one fault.
			faulted = true
			streak := rep.faultStreak.Add(1)
			rep.suspend(recvTick, f.rt.cfg.RetryAfterHint<<min(streak-1, maxFaultShift))
		}
		if (status == wire.StatusBadRequest || status == wire.StatusUnknownModel) && !retried {
			// The router resolved this model on the backend at hello time
			// and the client's frame parsed here, so these point at the
			// forwarded frame being corrupted en route or the replica
			// losing its binding — both worth one sibling attempt. A
			// genuinely malformed request fails identically there and
			// turns terminal.
			continue
		}
		if rh.Op == wire.OpResult {
			// A structurally unsound payload (a flipped vector-length
			// byte), or stage times the replica cannot have spent on this
			// lane, is damage in flight: the client could only tear down
			// the stream or record garbage. Leave the lane undone so the
			// sibling pass re-decodes it. Queue wait, decode and copy-out
			// all fall between the flush and the receipt; batch assembly
			// is timed from the batch's first enqueue, which may be
			// another connection's lane enqueued before this flush, so
			// only ValidResultPayload bounds it.
			wall := recvTick - flushTick
			if !wire.ValidResultPayload(rp, b.mech, b.nobs) || !wire.PeekServerTiming(&tm, rp) ||
				tm.ServerNs() > wall {
				continue
			}
			if status == wire.StatusOK {
				rep.observeTiming(wall, &tm, recvTick)
			}
		}
		ln.op = rh.Op
		ln.flags = rh.Flags
		ln.resp = append(ln.resp[:0], rp...)
		if status.Retryable() && !retried {
			// Undone: the sibling attempt re-sends it, and the held
			// answer is relayed if there is no sibling or the sibling
			// cannot settle the lane.
			continue
		}
		if ln.sampled {
			f.ring.Record(obs.StageRouterForward, int32(rep.idx), uint32(ln.traceID), flushTick, recvTick)
		}
		if retried {
			ln.flags |= wire.FlagRetried
		}
		ln.done = true
		rep.decodes.Add(1)
	}
	if !faulted && rep.faultStreak.Load() != 0 {
		rep.faultStreak.Store(0)
	}
	return false
}

// isNetTimeout reports a deadline-exceeded transport error.
func isNetTimeout(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}

// growLanes sizes the lane scratch for at least n lanes.
func (f *feConn) growLanes(n int) {
	for len(f.lanes) < n {
		f.lanes = append(f.lanes, feLane{})
	}
}

// countUndone reports how many lanes still lack a terminal response.
func countUndone(lanes []feLane) int {
	n := 0
	for i := range lanes {
		if !lanes[i].done {
			n++
		}
	}
	return n
}

// appendErrPayload builds an OpError payload (status byte + message).
func appendErrPayload(buf []byte, status wire.Status, msg string) []byte {
	buf = append(buf, byte(status))
	return append(buf, msg...)
}
