package cluster

import (
	"errors"
	"net"
	"time"

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
	resp  []byte // terminal response payload
	done  bool

	// Per-attempt response accounting, reset by forward: sent marks the
	// lane as part of the attempt, answered that a response frame was
	// consumed for it (possibly retryable, leaving done false), lost
	// that a stream desync destroyed its response — the forward loop
	// must not wait for a frame that will never arrive.
	sent     bool
	answered bool
	lost     bool

	// Telemetry relay state. A client-traced lane (the client sent
	// FlagTelemetry) relays payloads untouched both ways under the
	// client's trace id; an untraced lane gets a router-originated trace
	// block appended once to syn at gather time (so a retry re-sends the
	// same id) and the replica's timing block stripped before the
	// response relays back (strip).
	traceID uint64
	traced  bool // forward carries FlagTelemetry
	sampled bool // router records a forward span for this lane
	strip   bool // router-originated telemetry: trim before relaying
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

// flags carries the router's own health bits on frames it originates.
func (f *feConn) routerFlags() wire.Flags {
	if f.rt.wire.Draining() {
		return wire.FlagDraining
	}
	return 0
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
	if rep == nil {
		f.rt.noReplica.Add(1)
		return nil, wire.StatusOverload, "no usable replica"
	}
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

func (b *feBinding) Flags() wire.Flags { return b.f.routerFlags() }

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
			f.dropBackend(rep)
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

// dropBackend discards the connection to rep after a transport failure
// and demotes the replica.
func (f *feConn) dropBackend(rep *replica) {
	i := rep.idx
	if c := f.bconns[i]; c != nil {
		rep.release(c, false)
		f.bconns[i] = nil
		f.breconn[i] = true
	}
	rep.markDown()
}

// abandonBackend is the hedge's loser cancellation: the connection to
// the slow replica is discarded (any late responses die with it) but
// the replica is NOT demoted — slow is not down, and marking it down
// would dogpile its whole key range onto the sibling.
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
func (b *feBinding) Decode(flags wire.Flags, reqID uint64, payload []byte) {
	f := b.f
	f.growLanes(f.n + 1)
	ln := &f.lanes[f.n]
	f.n++
	ln.reqID = reqID
	ln.syn = append(ln.syn[:0], payload...)
	ln.done = false
	f.armTrace(ln, flags)
}

// EndRun forwards the gathered run to the rendezvous winner, retries
// undone lanes once on the next-best sibling, and answers every lane
// with exactly one terminal response in arrival order.
func (b *feBinding) EndRun(buf []byte, clientID uint16) []byte {
	f := b.f
	lanes := f.lanes[:f.n]
	k := int64(f.n)
	f.n = 0

	// Admission control: a batch that would push the router past its
	// in-flight lane bound fails fast with a terminal overload instead
	// of queueing — a partitioned replica holds its lanes for a full IO
	// timeout each, and unbounded queueing behind that collapses the
	// front end for every client.
	admitted := f.rt.inflightLanes.Add(k) <= f.rt.maxInflightLanes
	if !admitted {
		f.rt.admissionRejected.Add(uint64(k))
	} else {
		// First attempt on the rendezvous winner. A fired hedge leaves
		// its undone lanes for the sibling pass below — the hedge IS
		// the retry, pre-authorised by the hedge bucket, so it bypasses
		// the failing-replica retry budget.
		first := f.rt.pick(b.keyHash, nil)
		hedged := false
		if first != nil {
			hedged = f.forward(b, first, lanes, false)
		}
		if undone := countUndone(lanes); undone > 0 {
			sib := f.rt.pick(b.keyHash, first)
			allowed := sib != nil
			if allowed && first != nil && !hedged &&
				!first.budget.take(obs.Tick(), float64(undone)) {
				// Retry budget exhausted: fail terminally rather than
				// amplify load while the replica set is degraded.
				first.retryExhausted.Add(uint64(undone))
				allowed = false
			}
			if allowed {
				if !hedged {
					f.rt.retries.Add(uint64(undone))
				}
				f.forward(b, sib, lanes, true)
				if hedged {
					if won := undone - countUndone(lanes); won > 0 {
						f.rt.hedgeWins.Add(uint64(won))
					}
				}
			} else if first == nil && sib == nil {
				f.rt.noReplica.Add(uint64(undone))
			}
		}
	}
	f.rt.inflightLanes.Add(-k)
	for i := range lanes {
		ln := &lanes[i]
		if !ln.done {
			ln.op = wire.OpError
			ln.flags = f.routerFlags()
			if admitted {
				ln.resp = appendErrPayload(ln.resp[:0], wire.StatusOverload, "no usable replica")
			} else {
				ln.resp = appendErrPayload(ln.resp[:0], wire.StatusOverload, "router at capacity")
			}
			ln.done = true
		}
		buf = wire.AppendFrame(buf, ln.op, ln.flags, clientID, ln.reqID, ln.resp)
	}
	return buf
}

// armTrace sets a gathered lane's telemetry relay state. Client-traced
// lanes (flag set, parseable v1 block at the payload tail) keep the
// client's trace id and sampling bit and relay untouched both ways; a
// flag with an unknown block version relays untouched too, with no
// router-side sampling. Untraced lanes get a router-originated trace
// block appended to the copied payload — once, here, so the retry path
// re-sends the identical frame — and the timing block stripped off the
// response before it reaches the client.
func (f *feConn) armTrace(ln *feLane, flags wire.Flags) {
	ln.traceID, ln.sampled, ln.strip = 0, false, false
	ln.traced = flags&wire.FlagTelemetry != 0
	if ln.traced {
		if tc, ok := wire.PeekTraceContext(flags, ln.syn); ok {
			ln.traceID = tc.TraceID
			ln.sampled = tc.Sampled && f.rt.tracer.Enabled()
		}
		return
	}
	id := f.rt.tracer.NextID()
	ln.traceID = id
	ln.sampled = f.rt.tracer.ShouldSample(id)
	ln.syn = wire.AppendTraceBlock(ln.syn, wire.TraceContext{TraceID: id, Sampled: ln.sampled})
	ln.traced = true
	ln.strip = true
}

// forward sends every undone lane to rep and records terminal
// responses. Lanes answered with a retryable status stay undone unless
// this is already the retry attempt; a transport failure leaves all
// unanswered lanes undone and demotes the replica. On a primary
// attempt with hedging configured, a first response slower than
// HedgeAfter abandons the connection (loser cancellation) and reports
// true — the caller re-sends the undone lanes to the sibling.
//
// The response loop tolerates backend stream desyncs: responses arrive
// in request order, so a frame matching a lane deeper in the attempt
// means the skipped lanes' responses were destroyed by a resync — they
// are marked lost (eligible for retry) instead of stalling the loop on
// frames that will never arrive.
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
				ln.flags = f.routerFlags()
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
		ln.sent, ln.answered, ln.lost = false, false, false
		if ln.done {
			continue
		}
		var fl wire.Flags
		if ln.traced {
			fl = wire.FlagTelemetry
		}
		c.QueueFrame(wire.OpDecode, fl, beID, ln.reqID, ln.syn)
		ln.sent = true
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
		f.rt.hedgeBucket.deposit(f.rt.cfg.HedgeMaxRate)
	}
	preDesyncs := c.Desyncs()
	expect := 0 // first lane that may still receive a response
	probed := false
	garbage := 0
	var tm wire.ServerTiming
	for {
		for expect < len(lanes) {
			ln := &lanes[expect]
			if ln.sent && !ln.answered && !ln.lost {
				break
			}
			expect++
		}
		if expect >= len(lanes) {
			break // every sent lane answered or written off as lost
		}
		var rh wire.Header
		var rp []byte
		var rerr error
		if armed && !probed {
			// The hedge window covers time-to-first-response: one slow
			// head-of-line decode is the signal a congested link gives.
			probed = true
			rh, rp, rerr = c.ReadFrameTimeout(hedgeAfter)
			if rerr != nil && isNetTimeout(rerr) {
				now := obs.Tick()
				sib := f.rt.pick(b.keyHash, rep)
				if sib != nil && State(sib.state.Load()) == StateHealthy &&
					sib.suspendUntil.Load() <= now &&
					f.rt.hedgeBucket.take(now, 1) {
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
			f.rt.desyncs.Add(c.Desyncs() - preDesyncs)
			f.dropBackend(rep)
			return false
		}
		recvTick := obs.Tick()
		if rh.Op != wire.OpResult && rh.Op != wire.OpError {
			f.rt.protoErrors.Add(1)
			f.rt.desyncs.Add(c.Desyncs() - preDesyncs)
			f.dropBackend(rep)
			return false
		}
		// In-order matching with skip-ahead: find the lane this frame
		// answers among those still awaiting a response.
		match := -1
		for j := expect; j < len(lanes); j++ {
			ln := &lanes[j]
			if !ln.sent || ln.answered || ln.lost {
				continue
			}
			if ln.reqID == rh.ReqID {
				match = j
				break
			}
		}
		if match < 0 {
			// No live lane wants this frame: a resync artifact. Drop
			// it, bounded — a stream emitting only garbage is dead.
			garbage++
			if garbage > len(lanes)+4 {
				f.rt.protoErrors.Add(1)
				f.rt.desyncs.Add(c.Desyncs() - preDesyncs)
				f.dropBackend(rep)
				return false
			}
			continue
		}
		for j := expect; j < match; j++ {
			ln := &lanes[j]
			if ln.sent && !ln.answered && !ln.lost {
				ln.lost = true // its response died upstream of the resync
			}
		}
		status, perr := wire.PeekStatus(rp)
		if perr != nil {
			f.rt.protoErrors.Add(1)
			f.rt.desyncs.Add(c.Desyncs() - preDesyncs)
			f.dropBackend(rep)
			return false
		}
		rep.observeFlags(rh.Flags)
		ln := &lanes[match]
		ln.answered = true
		wall := recvTick - flushTick
		peeked := status == wire.StatusOK && wire.PeekServerTiming(&tm, rh.Flags, rp)
		timed := peeked && plausibleTiming(&tm)
		if timed {
			rep.observeTiming(wall, &tm, recvTick)
		}
		if status == wire.StatusOverload {
			// Retry-After honoring: the replica asked for breathing
			// room; deprioritise it until the hint expires.
			rep.suspend(recvTick, f.rt.cfg.RetryAfterHint)
		}
		if status.Retryable() && !retried {
			continue // answered but undone; the sibling attempt re-sends it
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
		if ln.strip && status == wire.StatusOK && !timed {
			// The router injected telemetry into this request itself, so a
			// well-formed OK result must end in a recognizable timing
			// block. One that does not was corrupted in flight: leave the
			// lane answered-but-undone (retry-eligible) rather than relay
			// a payload the client cannot parse.
			continue
		}
		if peeked && !timed {
			// A v1 timing block whose stage values fail the plausibility
			// bound was corrupted in flight; on a client-traced lane the
			// garbage would flow straight into the client's split stats.
			continue
		}
		relayFlags := rh.Flags
		if ln.strip {
			// Router-originated telemetry: the client never asked for it,
			// so the timing block and flag must not leak downstream.
			relayFlags &^= wire.FlagTelemetry
			rp = wire.TrimServerTiming(rh.Flags, rp)
		}
		if rh.Op == wire.OpResult && !wire.ValidResultPayload(relayFlags, rp, b.mech, b.nobs) {
			// Structurally unsound payload (a flipped vector-length byte,
			// a mangled telemetry tail): the client's only recourse would
			// be tearing down the stream. Leave the lane answered-but-
			// undone so the sibling pass re-decodes it.
			continue
		}
		f.rt.slo.observe(wall)
		if ln.sampled {
			f.ring.Record(obs.StageRouterForward, int32(rep.idx), uint32(ln.traceID), flushTick, recvTick)
		}
		ln.op = rh.Op
		ln.flags = relayFlags
		if retried {
			ln.flags |= wire.FlagRetried
		}
		ln.resp = append(ln.resp[:0], rp...)
		ln.done = true
		rep.decodes.Add(1)
	}
	f.rt.desyncs.Add(c.Desyncs() - preDesyncs)
	return false
}

// plausibleTiming rejects server-timing blocks whose stage components
// were corrupted in flight: the wire protocol has no checksum, so a
// flipped byte inside an i64 shows up as a negative or absurdly large
// stage time. Feeding that into the health stats would poison the
// network/server split and the SLO burn; an hour bounds any real stage
// far above every configured timeout while catching random corruption
// of the high bytes.
func plausibleTiming(tm *wire.ServerTiming) bool {
	const maxStageNs = int64(time.Hour)
	return tm.QueueWaitNs >= 0 && tm.QueueWaitNs <= maxStageNs &&
		tm.BatchAssembleNs >= 0 && tm.BatchAssembleNs <= maxStageNs &&
		tm.DecodeNs >= 0 && tm.DecodeNs <= maxStageNs &&
		tm.CopyOutNs >= 0 && tm.CopyOutNs <= maxStageNs
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
