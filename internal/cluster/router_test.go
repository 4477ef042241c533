package cluster

import (
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vegapunk/internal/code"
	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/fault"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
	"vegapunk/internal/serve"
	"vegapunk/internal/wire"
)

const testKey = "cluster/bp/p0.010"

// clusterModel builds the small, fast test model: the [[72,12,6]] BB
// code under code-capacity noise, decoded with plain BP.
func clusterModel(t testing.TB) (*dem.Model, core.Factory) {
	t.Helper()
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CodeCapacity(c, 0.01)
	return model, func() core.Decoder { return core.NewBP(model, 30) }
}

func sampleSyndromes(model *dem.Model, n int, seed uint64) []gf2.Vec {
	rng := rand.New(rand.NewPCG(seed, 7))
	out := make([]gf2.Vec, n)
	e := gf2.NewVec(model.NumMech())
	for i := range out {
		model.SampleInto(e, rng)
		out[i] = model.Syndrome(e)
	}
	return out
}

func replicaConfig() serve.Config {
	return serve.Config{
		MaxBatch: 8, MaxWait: 50 * time.Microsecond,
		PoolSize: 2,
	}
}

// startReplica brings up one wire-serving replica with the test model
// registered and returns the server and its address.
func startReplica(t testing.TB, cfg serve.Config, factory core.Factory) (*serve.Server, string) {
	t.Helper()
	model, def := clusterModel(t)
	if factory == nil {
		factory = def
	}
	srv := serve.NewServer(cfg)
	if _, err := srv.Register(testKey, model, "BP(30)", factory); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ServeWire(l)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return srv, l.Addr().String()
}

// startRouter brings up a router over the given replicas and returns
// it plus its client-facing address.
func startRouter(t testing.TB, cfg Config) (*Router, string) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = rt.Serve(l)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
		<-done
	})
	return rt, l.Addr().String()
}

// replicaByAddr finds the router's replica record for addr.
func replicaByAddr(t *testing.T, rt *Router, addr string) *replica {
	t.Helper()
	for _, rep := range rt.replicas {
		if rep.addr == addr {
			return rep
		}
	}
	t.Fatalf("no replica %q", addr)
	return nil
}

// waitState polls until the router sees addr in the wanted state.
func waitState(t *testing.T, rt *Router, addr string, want State) {
	t.Helper()
	rep := replicaByAddr(t, rt, addr)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if State(rep.state.Load()) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replica %s never reached %s (now %s)", addr, want, State(rep.state.Load()))
}

// TestRouterPick pins the rendezvous-routing properties: determinism,
// exclusion, down-exclusion and healthy-over-draining preference.
func TestRouterPick(t *testing.T) {
	rt, err := New(Config{
		Replicas:      []string{"10.0.0.1:9000", "10.0.0.2:9000", "10.0.0.3:9000"},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()

	kh := hash64("some/model/key")
	first := rt.pick(kh, nil)
	if first == nil {
		t.Fatal("pick returned nil with three healthy replicas")
	}
	for i := 0; i < 100; i++ {
		if rt.pick(kh, nil) != first {
			t.Fatal("pick is not deterministic for a fixed key")
		}
	}
	second := rt.pick(kh, first)
	if second == nil || second == first {
		t.Fatalf("exclusion pick: got %v", second)
	}

	// Down replicas are never picked.
	first.setState(StateDown)
	if got := rt.pick(kh, nil); got == first {
		t.Fatal("picked a down replica")
	}
	// Draining loses to any healthy replica but still beats nothing.
	first.setState(StateDraining)
	if got := rt.pick(kh, nil); got == first {
		t.Fatal("picked a draining replica while healthy ones remain")
	}
	for _, rep := range rt.replicas {
		if rep != first {
			rep.setState(StateDown)
		}
	}
	if got := rt.pick(kh, nil); got != first {
		t.Fatal("draining replica must be picked when it is the only one left")
	}
	first.setState(StateDown)
	if got := rt.pick(kh, nil); got != nil {
		t.Fatal("pick over an all-down set must return nil")
	}

	// Keys spread: over many keys, every replica wins some.
	for _, rep := range rt.replicas {
		rep.setState(StateHealthy)
	}
	wins := map[*replica]int{}
	for i := 0; i < 512; i++ {
		wins[rt.pick(mix64(uint64(i)), nil)]++
	}
	for _, rep := range rt.replicas {
		if wins[rep] == 0 {
			t.Fatalf("replica %s never wins the rendezvous draw", rep.addr)
		}
	}
}

// TestReplicaRedialBackoff walks the redial schedule against a port
// that refuses connections. Each real dial that fails counts one dial
// error and closes the replica to dials for redialBackoff, doubled per
// consecutive failure up to maxRedialBackoff; while the window is open
// acquire answers errBackoff without dialing. A successful dial resets
// the schedule. The test clears nextDial instead of waiting a window out.
func TestReplicaRedialBackoff(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := l.Addr().String()
	_ = l.Close() // nothing listens there now, so dials are refused
	live, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	rep := &replica{addr: refused, idle: make(chan *wire.Client, 1)}
	cfg := Config{IOTimeout: time.Second}
	fails := uint64(0)
	failOnce := func(want time.Duration) {
		t.Helper()
		rep.nextDial.Store(0)
		before := obs.Tick()
		if _, err := rep.acquire(&cfg); err == nil || errors.Is(err, errBackoff) {
			t.Fatalf("dial %d to a refused port: error %v, want a dial error", fails+1, err)
		}
		after := obs.Tick()
		fails++
		if got := rep.dialErrors.Load(); got != fails {
			t.Fatalf("dial errors %d, want %d", got, fails)
		}
		if got := time.Duration(rep.backoffNs.Load()); got != want {
			t.Fatalf("dial %d: backoff %v, want %v", fails, got, want)
		}
		if next := rep.nextDial.Load(); next < before+int64(want) || next > after+int64(want) {
			t.Fatalf("dial %d: window ends %v after the dial, want %v", fails, time.Duration(next-before), want)
		}
		if _, err := rep.acquire(&cfg); !errors.Is(err, errBackoff) {
			t.Fatalf("acquire inside the window: error %v, want errBackoff", err)
		}
		if got := rep.dialErrors.Load(); got != fails {
			t.Fatalf("acquire inside the window dialed: %d dial errors, want %d", got, fails)
		}
	}

	want := redialBackoff
	for range 8 { // 100ms doubles to 3.2s, then two at the 5s cap
		failOnce(want)
		want = min(2*want, maxRedialBackoff)
	}
	if want != maxRedialBackoff {
		t.Fatalf("schedule never reached the cap: %v", want)
	}

	rep.addr = live.Addr().String()
	rep.nextDial.Store(0)
	c, err := rep.acquire(&cfg)
	if err != nil {
		t.Fatalf("dial to a live port: %v", err)
	}
	_ = c.Close()
	if got := rep.backoffNs.Load(); got != 0 {
		t.Fatalf("backoff %v after a successful dial, want 0", time.Duration(got))
	}
	rep.addr = refused
	failOnce(redialBackoff)
}

// TestRouterEndToEnd: corrections served through the router must be
// bit-identical to a serial decoder run on the same syndromes.
func TestRouterEndToEnd(t *testing.T) {
	_, addrA := startReplica(t, replicaConfig(), nil)
	_, addrB := startReplica(t, replicaConfig(), nil)
	_, raddr := startRouter(t, Config{Replicas: []string{addrA, addrB}, ProbeInterval: 50 * time.Millisecond})

	model, factory := clusterModel(t)
	const nSyn = 48
	syndromes := sampleSyndromes(model, nSyn, 21)
	ref := factory()
	want := make([]gf2.Vec, nSyn)
	for i, s := range syndromes {
		est, _ := ref.Decode(s)
		want[i] = est.Clone()
	}

	c, err := wire.Dial(raddr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Hello(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumDet != model.NumDet || info.NumMech != model.NumMech() || info.NumObs != model.NumObs {
		t.Fatalf("hello dims through router: %+v", info)
	}
	var res wire.Result
	wire.SizeResult(&res, info.NumMech, info.NumObs)

	// One-shot decodes and a pipelined batch both round-trip.
	for i := 0; i < 8; i++ {
		if _, err := c.Decode(info.ID, uint64(i+1), syndromes[i], &res); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if res.Status != wire.StatusOK || !res.Correction.Equal(want[i]) {
			t.Fatalf("decode %d: status=%s correction mismatch", i, res.Status)
		}
	}
	for i := 8; i < nSyn; i++ {
		c.QueueDecode(info.ID, uint64(i+1), syndromes[i])
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < nSyn; i++ {
		h, err := c.ReadResult(&res)
		if err != nil {
			t.Fatalf("pipelined result %d: %v", i, err)
		}
		if h.ReqID != uint64(i+1) {
			t.Fatalf("pipelined result %d: req id %d (order must be preserved)", i, h.ReqID)
		}
		if res.Status != wire.StatusOK || !res.Correction.Equal(want[i]) {
			t.Fatalf("pipelined result %d: status=%s correction mismatch", i, res.Status)
		}
	}
}

// TestRouterFailoverKill is the availability keystone: with two
// replicas under concurrent load, hard-killing the rendezvous winner
// must not lose a single request — in-flight requests are retried on
// the survivor and every request reaches exactly one terminal outcome.
func TestRouterFailoverKill(t *testing.T) {
	srvA, addrA := startReplica(t, replicaConfig(), nil)
	srvB, addrB := startReplica(t, replicaConfig(), nil)
	rt, raddr := startRouter(t, Config{
		Replicas:      []string{addrA, addrB},
		ProbeInterval: 20 * time.Millisecond,
	})

	model, _ := clusterModel(t)
	winner := rt.pick(hash64(testKey), nil)
	victim, survivor := srvA, replicaByAddr(t, rt, addrB)
	if winner.addr == addrB {
		victim, survivor = srvB, replicaByAddr(t, rt, addrA)
	}

	const (
		workers    = 4
		perWorker  = 150
		killAfterN = 60
	)
	var completed atomic.Int64
	var okCount, errCount, retriedCount atomic.Int64
	killed := make(chan struct{})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			syndromes := sampleSyndromes(model, 32, seed)
			c, err := wire.Dial(raddr, time.Second, 10*time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			info, err := c.Hello(testKey)
			if err != nil {
				t.Errorf("hello: %v", err)
				return
			}
			var res wire.Result
			wire.SizeResult(&res, info.NumMech, info.NumObs)
			for i := 0; i < perWorker; i++ {
				flags, err := c.Decode(info.ID, uint64(i+1), syndromes[i%len(syndromes)], &res)
				if err != nil {
					// Transport loss at the client breaks the
					// exactly-one-outcome contract: the router must
					// absorb replica death.
					t.Errorf("client transport error mid-failover: %v", err)
					return
				}
				if res.Status == wire.StatusOK {
					okCount.Add(1)
				} else {
					errCount.Add(1)
				}
				if flags&wire.FlagRetried != 0 {
					retriedCount.Add(1)
				}
				completed.Add(1)
			}
		}(uint64(w + 1))
	}

	go func() {
		defer close(killed)
		for completed.Load() < killAfterN {
			time.Sleep(time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = victim.Shutdown(ctx)
	}()
	wg.Wait()
	<-killed

	total := okCount.Load() + errCount.Load()
	if want := int64(workers * perWorker); total != want {
		t.Fatalf("terminal outcomes = %d, want %d (every request exactly one outcome)", total, want)
	}
	if errCount.Load() > int64(workers*perWorker/10) {
		t.Fatalf("too many error outcomes across failover: %d ok, %d errors", okCount.Load(), errCount.Load())
	}
	if survivor.decodes.Load() == 0 {
		t.Fatal("survivor served no traffic after the kill")
	}
	waitState(t, rt, winner.addr, StateDown)
	if rt.replicas[winner.idx].failovers.Load() == 0 {
		t.Fatal("victim was never recorded as a failover")
	}
}

// TestRouterDrainRejoin: soft-draining the rendezvous winner shifts
// traffic to the sibling without dropping a request; clearing the
// drain flag brings it back.
func TestRouterDrainRejoin(t *testing.T) {
	srvA, addrA := startReplica(t, replicaConfig(), nil)
	srvB, addrB := startReplica(t, replicaConfig(), nil)
	rt, raddr := startRouter(t, Config{
		Replicas:      []string{addrA, addrB},
		ProbeInterval: 20 * time.Millisecond,
	})

	model, _ := clusterModel(t)
	winner := rt.pick(hash64(testKey), nil)
	winnerSrv, siblingRep := srvA, replicaByAddr(t, rt, addrB)
	if winner.addr == addrB {
		winnerSrv, siblingRep = srvB, replicaByAddr(t, rt, addrA)
	}

	c, err := wire.Dial(raddr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Hello(testKey)
	if err != nil {
		t.Fatal(err)
	}
	var res wire.Result
	wire.SizeResult(&res, info.NumMech, info.NumObs)
	syndromes := sampleSyndromes(model, 16, 31)
	decode := func(reqID uint64) {
		t.Helper()
		if _, err := c.Decode(info.ID, reqID, syndromes[reqID%16], &res); err != nil {
			t.Fatalf("decode %d: %v", reqID, err)
		}
		if res.Status != wire.StatusOK {
			t.Fatalf("decode %d: status %s", reqID, res.Status)
		}
	}

	decode(1)
	if winner.decodes.Load() == 0 {
		t.Fatal("pre-drain traffic must land on the rendezvous winner")
	}

	winnerSrv.SetWireDraining(true)
	waitState(t, rt, winner.addr, StateDraining)
	winnerBefore, siblingBefore := winner.decodes.Load(), siblingRep.decodes.Load()
	for i := uint64(2); i < 12; i++ {
		decode(i)
	}
	if got := winner.decodes.Load(); got != winnerBefore {
		t.Fatalf("draining winner still served %d decodes", got-winnerBefore)
	}
	if got := siblingRep.decodes.Load(); got != siblingBefore+10 {
		t.Fatalf("sibling served %d of 10 drain-window decodes", got-siblingBefore)
	}

	winnerSrv.SetWireDraining(false)
	waitState(t, rt, winner.addr, StateHealthy)
	winnerBefore = winner.decodes.Load()
	for i := uint64(12); i < 22; i++ {
		decode(i)
	}
	if got := winner.decodes.Load(); got != winnerBefore+10 {
		t.Fatalf("rejoined winner served %d of 10 post-drain decodes", got-winnerBefore)
	}
}

// faultyPair is a router over two replicas and a client bound to
// testKey through it. The preferred replica wraps a decoder that panics
// on every decode, so every lane it gets is answered
// StatusDecoderFault; faults counts its decodes. The sibling
// drains softly (it still decodes, flagged draining), so routing
// reaches it only as the retry target.
type faultyPair struct {
	rt          *Router
	faulty, sib *replica
	faults      *fault.Counters
	sibSrv      *serve.Server
	c           *wire.Client
	info        wire.ModelInfo
}

func newFaultyPair(t *testing.T, cfg Config) faultyPair {
	t.Helper()
	_, factory := clusterModel(t)
	faulty, faults := fault.Wrap(factory, fault.Plan{
		Seed: 1,
		Mix:  map[fault.Kind]float64{fault.Crash: 1},
	})
	faultyCfg := replicaConfig()
	faultyCfg.MaxBatch = 1
	faultyCfg.PoolSize = 1
	_, faultyAddr := startReplica(t, faultyCfg, faulty)
	sib, sibAddr := startReplica(t, replicaConfig(), nil)
	sib.SetWireDraining(true)

	cfg.Replicas = []string{faultyAddr, sibAddr}
	cfg.ProbeInterval = time.Hour
	rt, raddr := startRouter(t, cfg)
	sibRep := replicaByAddr(t, rt, sibAddr)
	sibRep.setState(StateDraining)

	c, err := wire.Dial(raddr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	info, err := c.Hello(testKey)
	if err != nil {
		t.Fatal(err)
	}
	return faultyPair{rt: rt, faulty: replicaByAddr(t, rt, faultyAddr), sib: sibRep,
		faults: faults, sibSrv: sib, c: c, info: info}
}

// TestRouterRetryOnDecoderFault: a replica whose decoder faults answers
// StatusDecoderFault; the router must retry the request on the sibling,
// mark the response FlagRetried, and suspend the faulty replica for
// RetryAfterHint, so that while the hint holds routing sends the key's
// traffic to the sibling without trying the faulty replica first.
func TestRouterRetryOnDecoderFault(t *testing.T) {
	p := newFaultyPair(t, Config{RetryAfterHint: time.Hour})
	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 12, 41)
	var res wire.Result
	wire.SizeResult(&res, p.info.NumMech, p.info.NumObs)

	flags, err := p.c.Decode(p.info.ID, 1, syndromes[1], &res)
	if err != nil {
		t.Fatalf("decode 1: %v", err)
	}
	if res.Status != wire.StatusOK || flags&wire.FlagRetried == 0 {
		t.Fatalf("decode 1: status %s flags %#x, want OK and FlagRetried via the sibling", res.Status, flags)
	}
	if got := p.faults.Of(fault.Crash); got != 1 {
		t.Fatalf("faulty replica crashed %d times, want 1", got)
	}
	if got := p.rt.retries.Load(); got != 1 {
		t.Fatalf("router retries = %d, want 1", got)
	}
	if p.faulty.suspendUntil.Load() <= obs.Tick() {
		t.Fatal("the decoder fault did not suspend the faulty replica")
	}

	// With the sibling healthy again, the suspension routes the key
	// straight to it: no retry, and no decode reaches the faulty replica.
	p.sibSrv.SetWireDraining(false)
	p.sib.setState(StateHealthy)
	for i := uint64(2); i <= 10; i++ {
		flags, err := p.c.Decode(p.info.ID, i, syndromes[i], &res)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if res.Status != wire.StatusOK || flags&wire.FlagRetried != 0 {
			t.Fatalf("decode %d: status %s flags %#x, want OK from the sibling directly", i, res.Status, flags)
		}
	}
	if got := p.faults.Ops.Load(); got != 1 {
		t.Fatalf("the suspended replica decoded %d times, want 1", got)
	}
}

// TestRouterRetriesEveryFaultedLane: every lane the faulty replica gets
// comes back StatusDecoderFault and asks for a sibling retry. Under the
// default config each of 150 faulted lanes is retried once on the
// sibling and answered: no token count refuses a retry while a sibling
// can still answer, however many faults came before.
func TestRouterRetriesEveryFaultedLane(t *testing.T) {
	// A fault suspends the faulty replica this long; a nanosecond keeps
	// routing every decode to it first.
	p := newFaultyPair(t, Config{RetryAfterHint: time.Nanosecond})
	model, _ := clusterModel(t)
	const lanes = 150
	syndromes := sampleSyndromes(model, lanes, 41)
	var res wire.Result
	wire.SizeResult(&res, p.info.NumMech, p.info.NumObs)

	for i := uint64(0); i < lanes; i++ {
		flags, err := p.c.Decode(p.info.ID, i, syndromes[i], &res)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if res.Status != wire.StatusOK || flags&wire.FlagRetried == 0 {
			t.Fatalf("decode %d: status %s flags %#x, want OK and FlagRetried via the sibling", i, res.Status, flags)
		}
	}
	if got := p.faults.Of(fault.Crash); got != lanes {
		t.Fatalf("faulty replica crashed %d times, want %d", got, lanes)
	}
	if got := p.rt.retries.Load(); got != lanes {
		t.Fatalf("router retries = %d, want %d", got, lanes)
	}
}

// TestRouterRelaysFaultWithoutSibling: a router over one replica whose
// decoder panics on every decode has no sibling to retry on, so it
// relays the replica's own StatusDecoderFault answer instead of
// inventing a "no usable replica" overload.
func TestRouterRelaysFaultWithoutSibling(t *testing.T) {
	_, factory := clusterModel(t)
	faulty, _ := fault.Wrap(factory, fault.Plan{
		Seed: 1,
		Mix:  map[fault.Kind]float64{fault.Crash: 1},
	})
	_, addr := startReplica(t, replicaConfig(), faulty)
	rt, raddr := startRouter(t, Config{Replicas: []string{addr}, ProbeInterval: time.Hour})
	c, err := wire.Dial(raddr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	info, err := c.Hello(testKey)
	if err != nil {
		t.Fatal(err)
	}
	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 4, 41)
	var res wire.Result
	wire.SizeResult(&res, info.NumMech, info.NumObs)
	for i := range syndromes {
		flags, err := c.Decode(info.ID, uint64(i), syndromes[i], &res)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if res.Status != wire.StatusDecoderFault || flags&wire.FlagRetried != 0 {
			t.Fatalf("decode %d: status %s flags %#x, want the replica's own StatusDecoderFault", i, res.Status, flags)
		}
	}
	if got := rt.retries.Load(); got != 0 {
		t.Fatalf("router retries = %d with no sibling, want 0", got)
	}
}

// TestRouterCountsUnansweredLanes: the only replica shuts down after the
// client's hello, so the next run's forward fails in transport and the
// router answers its lanes itself with overload "no usable replica".
// Each of those lanes is counted in vegapunk_router_no_replica_total,
// though pick found the replica usable when the run began.
func TestRouterCountsUnansweredLanes(t *testing.T) {
	srv, addr := startReplica(t, replicaConfig(), nil)
	rt, raddr := startRouter(t, Config{Replicas: []string{addr}, ProbeInterval: time.Hour})
	c, err := wire.Dial(raddr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	info, err := c.Hello(testKey)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 4, 43)
	for i, syn := range syndromes {
		c.QueueDecode(info.ID, uint64(i+1), syn)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range syndromes {
		h, payload, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
		status, msg, err := wire.ParseError(payload)
		if h.Op != wire.OpError || err != nil || h.ReqID != uint64(i+1) ||
			status != wire.StatusOverload || msg != "no usable replica" {
			t.Fatalf("lane %d: op %s req %d status %s %q (%v)", i, h.Op, h.ReqID, status, msg, err)
		}
	}
	if got := rt.noReplica.Load(); got != uint64(len(syndromes)) {
		t.Fatalf("no_replica_total = %d, want %d", got, len(syndromes))
	}
}

// TestRouterFaultBackoff: each consecutive forward that meets a decoder
// fault doubles the faulty replica's suspension, a forward with several
// faulted lanes extends the streak once, and a forward without a fault
// ends the streak. It drives a router connection's handler directly, so
// each EndRun is exactly one forward to the faulty replica (its
// suspension lifted first, so routing prefers it) and one retry on the
// sibling.
func TestRouterFaultBackoff(t *testing.T) {
	const hint = time.Hour
	p := newFaultyPair(t, Config{RetryAfterHint: hint})
	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 4, 41)
	f := newFEConn(p.rt)
	t.Cleanup(f.Close)
	bnd, status, msg := f.Hello(testKey)
	if bnd == nil {
		t.Fatalf("hello: %s %s", status, msg)
	}
	b := bnd.(*feBinding)
	reqID := uint64(0)
	// run sends lanes decodes as one run and checks that the sibling
	// answered each. The faulty replica's suspension is recvTick + d
	// for a receive tick read between before and after, so d lies in
	// [until-after, until-before].
	run := func(lanes int, want time.Duration) {
		t.Helper()
		p.faulty.suspendUntil.Store(0)
		for i := 0; i < lanes; i++ {
			reqID++
			frame := wire.AppendDecode(nil, 0, reqID, syndromes[i])
			b.Decode(reqID, frame[wire.HeaderSize:])
		}
		before := obs.Tick()
		buf := b.EndRun(nil, 1)
		after := obs.Tick()
		for i := 0; i < lanes; i++ {
			h, err := wire.ParseHeader(buf)
			if err != nil {
				t.Fatal(err)
			}
			end := wire.HeaderSize + h.PayloadLen
			st, err := wire.PeekStatus(buf[wire.HeaderSize:end])
			if err != nil || st != wire.StatusOK || h.Flags&wire.FlagRetried == 0 {
				t.Fatalf("lane %d: status %s (%v) flags %#x, want OK via the sibling", i, st, err, h.Flags)
			}
			buf = buf[end:]
		}
		until := p.faulty.suspendUntil.Load()
		if lo, hi := time.Duration(until-after), time.Duration(until-before); want < lo || want > hi {
			t.Fatalf("suspension in [%v, %v], want %v", lo, hi, want)
		}
	}

	for k := 1; k <= 3; k++ {
		run(1, hint<<(k-1))
		if got := p.faulty.faultStreak.Load(); got != uint32(k) {
			t.Fatalf("after %d faulting forwards the streak is %d", k, got)
		}
	}
	// Four faulted lanes in one forward are one more fault.
	run(4, hint<<3)
	if got := p.faulty.faultStreak.Load(); got != 4 {
		t.Fatalf("a 4-lane faulting forward left the streak at %d, want 4", got)
	}
	// Every retry forward on the sibling read its frames without a
	// fault, so it ends whatever streak the sibling had.
	p.sib.faultStreak.Store(5)
	run(1, hint<<4)
	if got := p.sib.faultStreak.Load(); got != 0 {
		t.Fatalf("a clean forward left the sibling's streak at %d, want 0", got)
	}
}

// answerer is a fake replica's wire.Handler and its one wire.Binding:
// hello binds any key with the test model's dimensions, and every
// decode frame is answered by answer as raw bytes, so a test can hand
// the router frames no real replica sends.
type answerer struct {
	det, mech, obs int
	answer         func(buf []byte, reqID uint64) []byte
	run            []uint64
}

func (a *answerer) Hello(string) (wire.Binding, wire.Status, string) { return a, wire.StatusOK, "" }
func (a *answerer) Close()                                           {}
func (a *answerer) Dims() (int, int, int)                            { return a.det, a.mech, a.obs }
func (a *answerer) Decode(reqID uint64, _ []byte)                    { a.run = append(a.run, reqID) }

func (a *answerer) EndRun(buf []byte, _ uint16) []byte {
	for _, id := range a.run {
		buf = a.answer(buf, id)
	}
	a.run = a.run[:0]
	return buf
}

// startFake serves answerers on a loopback listener until the test
// ends and returns its address. answer is shared by every connection.
func startFake(t *testing.T, answer func(buf []byte, reqID uint64) []byte) string {
	t.Helper()
	model, _ := clusterModel(t)
	srv := wire.NewServer(func() wire.Handler {
		return &answerer{det: model.NumDet, mech: model.NumMech(), obs: model.NumObs, answer: answer}
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return l.Addr().String()
}

// TestRouterBadBackendFrame pins the bad-frame rule. Two fake replicas
// answer every lane OK, except that the first lane the rendezvous
// winner answers gets one damaged frame. A bad frame — one the reader
// rejects, or one that does not answer the lane it was read for — ends
// that backend connection: all four lanes are answered by the sibling
// with FlagRetried, the winner stays healthy, and the next batch reaches
// it over a new connection counted as a reconnect. An implausible stage
// time is not a bad frame: only its lane goes to the sibling, the
// connection stays, and the value is never relayed.
func TestRouterBadBackendFrame(t *testing.T) {
	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 4, 13)
	// good answers OK with a decode time of 1 µs.
	good := func(buf []byte, reqID uint64) []byte {
		res := wire.Result{Status: wire.StatusOK, ServerTiming: wire.ServerTiming{DecodeNs: 1000},
			Correction: gf2.NewVec(model.NumMech()), Observables: gf2.NewVec(model.NumObs)}
		return wire.AppendResult(buf, 0, 0, reqID, &res)
	}
	flip := func(off int, mask byte) func([]byte, uint64) []byte {
		return func(buf []byte, reqID uint64) []byte {
			start := len(buf)
			buf = good(buf, reqID)
			buf[start+off] ^= mask
			return buf
		}
	}
	cases := []struct {
		name string
		bad  func(buf []byte, reqID uint64) []byte
		ends bool // the frame is bad: its connection ends
	}{
		{"bad magic", flip(0, 0xFF), true},
		{"unexpected op", func(buf []byte, reqID uint64) []byte { return wire.AppendPong(buf, 0, reqID) }, true},
		{"another lane's id", func(buf []byte, reqID uint64) []byte { return good(buf, reqID+1) }, true},
		{"bad status byte", func(buf []byte, reqID uint64) []byte {
			return wire.AppendFrame(buf, wire.OpResult, 0, 0, reqID, []byte{0xFF})
		}, true},
		// Byte 31 of the result payload is decode_ns's high byte: 2^56 ns.
		{"implausible decode_ns", flip(wire.HeaderSize+31, 0x01), false},
		// Byte 23 is batch_assemble_ns's: the gate bounds it too.
		{"implausible batch_assemble_ns", flip(wire.HeaderSize+23, 0x01), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var bad atomic.Bool
			bad.Store(true)
			answer := func(buf []byte, reqID uint64) []byte {
				if bad.CompareAndSwap(true, false) {
					return tc.bad(buf, reqID)
				}
				return good(buf, reqID)
			}
			rt, raddr := startRouter(t, Config{
				Replicas:      []string{startFake(t, answer), startFake(t, answer)},
				ProbeInterval: time.Hour,
			})
			winner := rt.pick(hash64(testKey), nil)
			c, err := wire.Dial(raddr, time.Second, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			info, err := c.Hello(testKey)
			if err != nil {
				t.Fatal(err)
			}
			var res wire.Result
			wire.SizeResult(&res, info.NumMech, info.NumObs)
			batch := func(first uint64) (retried int) {
				t.Helper()
				for i := range syndromes {
					c.QueueDecode(info.ID, first+uint64(i), syndromes[i])
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				for i := range syndromes {
					h, err := c.ReadResult(&res)
					if err != nil {
						t.Fatalf("lane %d: %v", first+uint64(i), err)
					}
					if res.Status != wire.StatusOK || res.DecodeNs != 1000 {
						t.Fatalf("lane %d: status %s, decode_ns %d", h.ReqID, res.Status, res.DecodeNs)
					}
					if h.Flags&wire.FlagRetried != 0 {
						retried++
					}
				}
				return retried
			}

			wantRetried, wantBad := 1, uint64(0)
			if tc.ends {
				wantRetried, wantBad = len(syndromes), 1
			}
			if got := batch(1); got != wantRetried {
				t.Fatalf("first batch: %d lanes retried, want %d", got, wantRetried)
			}
			if got := rt.protoErrors.Load(); got != wantBad {
				t.Fatalf("protocol errors = %d, want %d", got, wantBad)
			}
			if st := State(winner.state.Load()); st != StateHealthy {
				t.Fatalf("winner is %s after one bad frame, want healthy", st)
			}
			before := winner.decodes.Load()
			if got := batch(100); got != 0 {
				t.Fatalf("second batch: %d lanes retried, want 0", got)
			}
			if got := winner.decodes.Load() - before; got != uint64(len(syndromes)) {
				t.Fatalf("winner relayed %d lanes of the second batch, want %d", got, len(syndromes))
			}
			if got := rt.reconnects.Load(); got != wantBad {
				t.Fatalf("reconnects = %d, want %d", got, wantBad)
			}
		})
	}
}
