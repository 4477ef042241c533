package cluster

import (
	"context"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vegapunk/internal/code"
	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/faultinject"
	"vegapunk/internal/gf2"
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
		PoolSize:       2,
		RequestTimeout: 2 * time.Second,
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
		RedialBackoff: 20 * time.Millisecond,
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

// TestRouterRetryOnOpenBreaker: a replica whose circuit breaker is open
// answers StatusOverload; the router must retry those requests on the
// sibling and mark the response FlagRetried.
func TestRouterRetryOnOpenBreaker(t *testing.T) {
	model, factory := clusterModel(t)
	// The winner's first decode panics; with BreakerThreshold 1 the
	// breaker trips and fast-fails everything after.
	faulty, _ := faultinject.Wrap(factory, faultinject.Plan{
		Seed:   1,
		Script: []faultinject.Kind{faultinject.KindPanic},
	})
	faultyCfg := replicaConfig()
	faultyCfg.MaxBatch = 1
	faultyCfg.PoolSize = 1
	faultyCfg.BreakerThreshold = 1
	faultyCfg.BreakerCooldown = time.Hour

	// Start both replicas healthy, then decide which one the router
	// prefers and rebuild the preferred one as the faulty replica.
	_, addrA := startReplica(t, replicaConfig(), nil)
	_, addrB := startReplica(t, replicaConfig(), nil)
	probe, err := New(Config{Replicas: []string{addrA, addrB}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	winnerAddr := probe.pick(hash64(testKey), nil).addr
	{
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = probe.Shutdown(ctx)
		cancel()
	}

	// Fresh pair: faulty server on a new address in the winner's slot.
	_, faultyAddr := startReplica(t, faultyCfg, faulty)
	replicas := []string{faultyAddr, addrA}
	if winnerAddr == addrB {
		replicas = []string{faultyAddr, addrB}
	}
	// Make sure the faulty replica actually wins the draw for testKey;
	// if not, swap roles by routing only through it first.
	rt, raddr := startRouter(t, Config{Replicas: replicas, ProbeInterval: time.Hour})
	if rt.pick(hash64(testKey), nil).addr != faultyAddr {
		// The healthy sibling wins: force the faulty one to be
		// preferred by marking the sibling draining (healthy>draining).
		for _, rep := range rt.replicas {
			if rep.addr != faultyAddr {
				rep.setState(StateDraining)
			}
		}
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
	syndromes := sampleSyndromes(model, 12, 41)

	// First decode trips the faulty replica's breaker: its own outcome
	// may be a decoder fault (terminal, truthful) or OK.
	if _, err := c.Decode(info.ID, 1, syndromes[0], &res); err != nil {
		t.Fatalf("decode 1: %v", err)
	}

	// Everything after must come back OK via the sibling, marked
	// retried (the faulty replica fast-fails with StatusOverload).
	sawRetried := false
	for i := uint64(2); i <= 10; i++ {
		flags, err := c.Decode(info.ID, i, syndromes[i], &res)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if res.Status != wire.StatusOK {
			t.Fatalf("decode %d: status %s, want OK via sibling retry", i, res.Status)
		}
		if flags&wire.FlagRetried != 0 {
			sawRetried = true
		}
	}
	if !sawRetried {
		t.Fatal("no response carried FlagRetried; breaker retries did not engage")
	}
	if rt.retries.Load() == 0 {
		t.Fatal("router retries counter never moved")
	}
}
