package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"vegapunk/internal/cluster"
	"vegapunk/internal/code"
	"vegapunk/internal/core"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
	"vegapunk/internal/serve"
	"vegapunk/internal/wire"
)

// answer is what one lane of a request came back with, in the terms the
// harness verifies. The vectors belong to the conn and are valid until
// its next request.
type answer struct {
	// ok is false for any terminal outcome other than a decoded result:
	// error status, shed, wrong request id.
	ok         bool
	correction gf2.Vec
	// observables is what the service says the correction flips; its
	// length is 0 on the direct path, which reports none.
	observables gf2.Vec
	// satisfied is the service's own D·ê = s verdict, present when flagged.
	satisfied, flagged bool
	degraded           bool
	// Replica-reported stage times of this lane (0 on the direct path).
	queueNs, assembleNs, decodeNs, copyNs int64
}

// serverNs is the replica-resident time the stages account for; the
// batch-assembly window lies inside the queue wait, as in
// wire.ServerTiming.ServerNs.
func (a *answer) serverNs() int64 { return a.queueNs + a.decodeNs + a.copyNs }

// conn is one client's way into the system under test: a request of
// len(syn) syndromes in, len(syn) answers out, spans recorded around
// each call into a layer when tr is non-nil. A returned error fails the
// whole request.
type conn interface {
	do(ctx context.Context, syn []gf2.Vec, out []answer, tr *tracer) error
	close() error
}

type directConn struct{ dec core.Decoder }

func (c *directConn) do(_ context.Context, syn []gf2.Vec, out []answer, tr *tracer) error {
	for i, s := range syn {
		t := tr.now()
		e, _ := c.dec.Decode(s)
		tr.call(spanCoreDecode, t)
		// The estimate is the decoder's until its next Decode; copy it out
		// as every caller that keeps a result must.
		gf2.CopyVec(&out[i].correction, e)
		out[i].ok = true
	}
	return nil
}

func (c *directConn) close() error { return nil }

type serveConn struct {
	svc *serve.Service
	res []serve.Result
}

func (c *serveConn) do(ctx context.Context, syn []gf2.Vec, out []answer, tr *tracer) error {
	if len(c.res) < len(syn) {
		c.res = make([]serve.Result, len(syn))
	}
	t := tr.now()
	err := c.svc.DecodeBatchInto(ctx, c.res[:len(syn)], syn)
	tr.call(spanServeDecodeBatch, t)
	if err != nil {
		return err
	}
	for i := range syn {
		r := &c.res[i]
		out[i] = answer{
			ok: true, correction: r.Correction, observables: r.Observables,
			satisfied: r.Satisfied, flagged: true, degraded: r.Tier != core.TierFull,
			queueNs: r.QueueWaitNs, assembleNs: r.BatchAssembleNs, decodeNs: r.DecodeNs, copyNs: r.CopyOutNs,
		}
	}
	return nil
}

func (c *serveConn) close() error { return nil }

// wireConn pipelines a request's lanes as frames on one connection:
// queue all, flush once, read all. It serves both socket workloads; only
// the address dialled differs.
type wireConn struct {
	cl     *wire.Client
	info   wire.ModelInfo
	res    []wire.Result
	nextID uint64
}

func dialWire(addr, key string) (*wireConn, error) {
	cl, err := wire.Dial(addr, 2*time.Second, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	info, err := cl.Hello(key)
	if err != nil {
		_ = cl.Close() // the hello error is the one worth reporting
		return nil, fmt.Errorf("hello %s at %s: %w", key, addr, err)
	}
	return &wireConn{cl: cl, info: info, nextID: 1}, nil
}

func (c *wireConn) do(_ context.Context, syn []gf2.Vec, out []answer, tr *tracer) error {
	for len(c.res) < len(syn) {
		var r wire.Result
		wire.SizeResult(&r, c.info.NumMech, c.info.NumObs)
		c.res = append(c.res, r)
	}
	base := c.nextID
	c.nextID += uint64(len(syn))
	for i, s := range syn {
		id := base + uint64(i)
		if tr == nil {
			c.cl.QueueDecode(c.info.ID, id, s)
			continue
		}
		t := tr.now()
		c.cl.QueueDecodeTraced(c.info.ID, id, s, wire.TraceContext{TraceID: id})
		tr.call(spanWireQueue, t)
	}
	t := tr.now()
	err := c.cl.Flush()
	tr.call(spanWireFlush, t)
	if err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	var firstErr error
	for i := range syn {
		r := &c.res[i]
		var (
			h  wire.Header
			tm wire.ServerTiming
		)
		if tr == nil {
			h, err = c.cl.ReadResult(r)
		} else {
			t := tr.now()
			h, _, err = c.cl.ReadResultTimed(r, &tm)
			tr.call(spanWireRead, t)
		}
		if err != nil {
			// A transport or parse failure poisons the stream: the lanes
			// behind it cannot be attributed any more.
			return fmt.Errorf("read lane %d: %w", i, err)
		}
		if h.ReqID != base+uint64(i) && firstErr == nil {
			firstErr = fmt.Errorf("lane %d answered request id %d, want %d", i, h.ReqID, base+uint64(i))
		}
		out[i] = answer{
			ok: r.Status == wire.StatusOK, correction: r.Correction, observables: r.Observables,
			satisfied: r.Satisfied, flagged: true, degraded: r.Tier != uint8(core.TierFull),
			queueNs: r.QueueWaitNs, assembleNs: tm.BatchAssembleNs, decodeNs: r.DecodeNs, copyNs: r.CopyOutNs,
		}
	}
	return firstErr
}

func (c *wireConn) close() error { return c.cl.Close() }

// env is a built workload: the model, the program under test and the
// connected clients.
type env struct {
	sp      *spec
	model   *dem.Model
	key     string
	dec     *decouple.Decoupling // nil on the BP workloads
	factory core.Factory
	servers []*serve.Server
	svcs    []*serve.Service
	// replicaAddrs are the wire listeners of servers, parallel to them
	// (empty on the in-process paths); routerAddr is the router's.
	replicaAddrs []string
	router       *cluster.Router
	routerAddr   string
	conns        []conn
	// decoupleS is how many seconds of set-up went into decouple.Decouple.
	decoupleS float64

	accept    sync.WaitGroup
	acceptMu  sync.Mutex
	acceptErr error
}

// clientsFor is the load size: C = min(nproc, 4) clients, or the single
// goroutine of the direct workload.
func clientsFor(sp *spec) int {
	if sp.path == pathDirect {
		return 1
	}
	return min(runtime.NumCPU(), 4)
}

// buildModel constructs the workload's code and detector error model.
func buildModel(sp *spec) (*code.CSS, *dem.Model, error) {
	c, err := code.NewBBByIndex(sp.bb)
	if err != nil {
		return nil, nil, err
	}
	if sp.circuit {
		return c, dem.CircuitLevel(c, sp.p), nil
	}
	return c, dem.CodeCapacity(c, sp.p), nil
}

// setup builds everything between the code and the first answered
// request: model, offline decoupling, decoders, servers, listeners,
// router, dialled clients, and one decode through each client. The
// caller times it as setup_s. warm is the syndrome of that first decode.
func setup(ctx context.Context, sp *spec, warm func(*dem.Model) gf2.Vec) (e *env, err error) {
	c, model, err := buildModel(sp)
	if err != nil {
		return nil, err
	}
	e = &env{sp: sp, model: model}
	defer func() {
		if err != nil {
			err = errors.Join(err, e.teardown(ctx))
			e = nil
		}
	}()

	name := fmt.Sprintf("BP(%d)", bpIters)
	if sp.vegapunk {
		name = "Vegapunk"
		t0 := time.Now()
		dec, derr := decouple.Decouple(model.CheckMatrix(), decouple.Options{Seed: decoupleSeed})
		if derr != nil {
			return e, fmt.Errorf("decouple: %w", derr)
		}
		e.decoupleS = time.Since(t0).Seconds()
		e.dec = dec
		e.factory = func() core.Decoder { return core.NewVegapunkFrom(model, dec, hier.Config{}) }
	} else {
		e.factory = func() core.Decoder { return core.NewBP(model, bpIters) }
	}
	e.key = serve.ModelKey(c.Name, name, sp.p)

	n := clientsFor(sp)
	switch sp.path {
	case pathDirect:
		e.conns = append(e.conns, &directConn{dec: e.factory()})
	case pathServe:
		if err := e.addServer(name, false); err != nil {
			return e, err
		}
		for i := 0; i < n; i++ {
			e.conns = append(e.conns, &serveConn{svc: e.svcs[0]})
		}
	case pathWire:
		if err := e.addServer(name, true); err != nil {
			return e, err
		}
		if err := e.dial(e.replicaAddrs[0], n); err != nil {
			return e, err
		}
	case pathRouter:
		for i := 0; i < 2; i++ {
			if err := e.addServer(name, true); err != nil {
				return e, err
			}
		}
		rt, rerr := cluster.New(cluster.Config{Replicas: e.replicaAddrs, PoolSize: n})
		if rerr != nil {
			return e, rerr
		}
		e.router = rt
		l, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return e, lerr
		}
		e.routerAddr = l.Addr().String()
		e.serveOn(func() error { return rt.Serve(l) })
		if err := e.dial(e.routerAddr, n); err != nil {
			return e, err
		}
	}

	syn := make([]gf2.Vec, sp.lanes)
	out := make([]answer, sp.lanes)
	for i := range syn {
		syn[i] = warm(model)
	}
	for i, cn := range e.conns {
		if err := cn.do(ctx, syn, out, nil); err != nil {
			return e, fmt.Errorf("first decode on client %d: %w", i, err)
		}
		for l := range out {
			if !out[l].ok {
				return e, fmt.Errorf("first decode on client %d: lane %d not decoded", i, l)
			}
		}
	}
	return e, nil
}

// addServer registers the model on a new serve.Server and, for the
// socket paths, puts it behind ServeWire on a loopback port.
func (e *env) addServer(decoderName string, listen bool) error {
	srv := serve.NewServer(e.sp.serve)
	svc, err := srv.Register(e.key, e.model, decoderName, e.factory)
	if err != nil {
		return err
	}
	e.servers = append(e.servers, srv)
	e.svcs = append(e.svcs, svc)
	if !listen {
		return nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.replicaAddrs = append(e.replicaAddrs, l.Addr().String())
	e.serveOn(func() error { return srv.ServeWire(l) })
	return nil
}

// serveOn runs an accept loop until teardown shuts its owner down, and
// keeps its error for teardown to report.
func (e *env) serveOn(loop func() error) {
	e.accept.Add(1)
	go func() {
		defer e.accept.Done()
		if err := loop(); err != nil {
			e.acceptMu.Lock()
			e.acceptErr = errors.Join(e.acceptErr, err)
			e.acceptMu.Unlock()
		}
	}()
}

func (e *env) dial(addr string, n int) error {
	for i := 0; i < n; i++ {
		c, err := dialWire(addr, e.key)
		if err != nil {
			return err
		}
		e.conns = append(e.conns, c)
	}
	return nil
}

// teardown closes the clients, shuts the router and the servers down
// and waits for the accept loops, so that nothing of this workload is
// still running when the next one is measured.
func (e *env) teardown(ctx context.Context) error {
	var errs []error
	for _, c := range e.conns {
		errs = append(errs, c.close())
	}
	e.conns = nil
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if e.router != nil {
		errs = append(errs, e.router.Shutdown(ctx))
		e.router = nil
	}
	for _, srv := range e.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	e.servers, e.svcs = nil, nil
	e.accept.Wait()
	e.acceptMu.Lock()
	errs = append(errs, e.acceptErr)
	e.acceptMu.Unlock()
	return errors.Join(errs...)
}

// settleGoroutines waits for the goroutine count to fall back to
// baseline and fails if it does not: a worker left over from one
// workload would run inside the next one's measurement.
func settleGoroutines(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running after teardown, baseline %d", n, baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
