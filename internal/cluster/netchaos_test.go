package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"vegapunk/internal/fault"
	"vegapunk/internal/serve"
	"vegapunk/internal/wire"
)

// The network-chaos suite drives the router through internal/fault
// proxies and pins the tier's fault-tolerance contract: every client
// request reaches exactly one terminal outcome (a response frame — OK
// or error — never a client-side transport failure), goroutines return
// to baseline, and hedged dispatch bounds the p99 of a slow link.

// startProxied brings up two replicas, each behind its own fault
// proxy under plan, and a router that only knows the proxy addresses.
// It returns the router, its client-facing address, and the proxies of
// the rendezvous winner and sibling for testKey.
func startProxied(t *testing.T, plan fault.Plan, cfg Config) (rt *Router, raddr string, winProxy, sibProxy *fault.Proxy) {
	t.Helper()
	_, addrA := startReplica(t, replicaConfig(), nil)
	_, addrB := startReplica(t, replicaConfig(), nil)
	pa, err := fault.Start(addrA, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pa.Close() })
	pb, err := fault.Start(addrB, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pb.Close() })
	cfg.Replicas = []string{pa.Addr(), pb.Addr()}
	rt, raddr = startRouter(t, cfg)
	winProxy, sibProxy = pa, pb
	if rt.pick(hash64(testKey), nil).addr == pb.Addr() {
		winProxy, sibProxy = pb, pa
	}
	return rt, raddr, winProxy, sibProxy
}

// TestNetChaosCorruptExactOutcomes injects deterministic single-byte
// corruption on both backend links. A corrupt frame header, op or
// request id ends that backend connection (counted in protoErrors; the
// redial in reconnects) and its unanswered lanes retry on the sibling,
// corrupt payloads are detected via the relay gate and retried — and in
// every case the client must receive exactly one response frame per
// request, in order, with a parseable status, and every result relayed
// must pass the relay gate: a corrupted stage time anywhere in the
// prefix (batch-assemble included) never reaches the client. The
// raw-frame client path is used on purpose: under payload corruption
// without checksums the correction bits may be garbage, but the framing
// contract must hold.
func TestNetChaosCorruptExactOutcomes(t *testing.T) {
	plan := fault.Plan{Seed: 0xC0FFEE, FaultEvery: 4096, Mix: map[fault.Kind]float64{fault.Corrupt: 1}}
	rt, raddr, winProxy, sibProxy := startProxied(t, plan, Config{
		ProbeInterval: 20 * time.Millisecond,
		IOTimeout:     2 * time.Second,
	})
	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 32, 97)

	c, err := wire.Dial(raddr, time.Second, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Hello(testKey)
	if err != nil {
		t.Fatal(err)
	}

	const rounds, batch = 60, 8
	var frame []byte
	reqID := uint64(0)
	for r := 0; r < rounds; r++ {
		base := reqID
		for j := 0; j < batch; j++ {
			reqID++
			frame = wire.AppendDecode(frame[:0], 0, 0, syndromes[int(reqID)%len(syndromes)])
			c.QueueFrame(wire.OpDecode, 0, info.ID, reqID, frame[wire.HeaderSize:])
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("flush round %d: %v", r, err)
		}
		for j := 0; j < batch; j++ {
			h, p, err := c.ReadFrame()
			if err != nil {
				t.Fatalf("client transport error in round %d: %v (exactly-one-outcome violated)", r, err)
			}
			if h.Op != wire.OpResult && h.Op != wire.OpError {
				t.Fatalf("round %d: unexpected response op %d", r, h.Op)
			}
			if want := base + uint64(j) + 1; h.ReqID != want {
				t.Fatalf("round %d: response for req %d, want %d (outcome misattributed)", r, h.ReqID, want)
			}
			if _, err := wire.PeekStatus(p); err != nil {
				t.Fatalf("round %d req %d: unparseable status: %v", r, h.ReqID, err)
			}
			if h.Op == wire.OpResult && !wire.ValidResultPayload(p, info.NumMech, info.NumObs) {
				t.Fatalf("round %d req %d: relayed a result the relay gate rejects", r, h.ReqID)
			}
		}
	}

	if winProxy.Counters.Of(fault.Corrupt)+sibProxy.Counters.Of(fault.Corrupt) == 0 {
		t.Fatal("plan injected no corruption; the test exercised nothing")
	}
	if rt.protoErrors.Load() == 0 && rt.retries.Load() == 0 && rt.reconnects.Load() == 0 {
		t.Fatal("corruption left no trace in protocol-error/retry/reconnect counters")
	}
	t.Logf("protocol errors %d, retries %d, reconnects %d",
		rt.protoErrors.Load(), rt.retries.Load(), rt.reconnects.Load())
}

// TestNetChaosPartitionFailover blackholes the rendezvous winner's
// link mid-traffic: requests already in flight fail over to the
// sibling within the IO timeout, the winner is demoted, and healing
// the link brings it back — without a single lost request or leaked
// goroutine.
func TestNetChaosPartitionFailover(t *testing.T) {
	repCfg := replicaConfig()
	repCfg.PoolSize = 1
	_, addrA := startReplica(t, repCfg, nil)
	_, addrB := startReplica(t, repCfg, nil)
	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 16, 11)

	// Warm both replicas directly so their lazily started decode
	// goroutines are up before the baseline; the warm connections stay
	// open to the end so their handlers are counted in it too.
	var warms []*wire.Client
	for _, addr := range []string{addrA, addrB} {
		w, err := wire.Dial(addr, time.Second, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		info, err := w.Hello(testKey)
		if err != nil {
			t.Fatal(err)
		}
		var res wire.Result
		wire.SizeResult(&res, info.NumMech, info.NumObs)
		if _, err := w.Decode(info.ID, 1, syndromes[0], &res); err != nil {
			t.Fatal(err)
		}
		warms = append(warms, w)
	}
	_ = warms

	pa, err := fault.Start(addrA, fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := fault.Start(addrB, fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()

	rt, raddr := startRouter(t, Config{
		Replicas:      []string{pa.Addr(), pb.Addr()},
		ProbeInterval: 20 * time.Millisecond,
		IOTimeout:     400 * time.Millisecond,
	})
	winner := rt.pick(hash64(testKey), nil)
	winProxy, sibRep := pa, replicaByAddr(t, rt, pb.Addr())
	if winner.addr == pb.Addr() {
		winProxy, sibRep = pb, replicaByAddr(t, rt, pa.Addr())
	}

	c, err := wire.Dial(raddr, time.Second, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Hello(testKey)
	if err != nil {
		t.Fatal(err)
	}
	var res wire.Result
	wire.SizeResult(&res, info.NumMech, info.NumObs)
	decode := func(reqID uint64) wire.Flags {
		t.Helper()
		flags, err := c.Decode(info.ID, reqID, syndromes[reqID%16], &res)
		if err != nil {
			t.Fatalf("decode %d: client transport error: %v (exactly-one-outcome violated)", reqID, err)
		}
		if res.Status != wire.StatusOK {
			t.Fatalf("decode %d: status %s", reqID, res.Status)
		}
		return flags
	}

	for i := uint64(1); i <= 4; i++ {
		decode(i)
	}
	if winner.decodes.Load() == 0 {
		t.Fatal("pre-partition traffic must land on the rendezvous winner")
	}

	// Partition: the link exists but moves nothing. The first in-flight
	// request rides the IO timeout, fails over, and demotes the winner.
	winProxy.SetKind(fault.Blackhole)
	sawRetried := false
	for i := uint64(5); i <= 20; i++ {
		if decode(i)&wire.FlagRetried != 0 {
			sawRetried = true
		}
	}
	if !sawRetried {
		t.Fatal("no response carried FlagRetried across the partition")
	}
	if rt.retries.Load() == 0 {
		t.Fatal("partition failover left the retry counter at zero")
	}
	if sibRep.decodes.Load() == 0 {
		t.Fatal("sibling served no traffic during the partition")
	}
	waitState(t, rt, winner.addr, StateDown)

	// Heal: probes bring the winner back and traffic returns to it.
	winProxy.SetKind(fault.Pass)
	waitState(t, rt, winner.addr, StateHealthy)
	before := winner.decodes.Load()
	for i := uint64(21); i <= 24; i++ {
		decode(i)
	}
	if winner.decodes.Load() == before {
		t.Fatal("healed winner served no traffic")
	}

	_ = c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("router shutdown: %v", err)
	}
	_ = pa.Close()
	_ = pb.Close()
	waitGoroutinesBack(t, base)
}

// TestNetChaosTornWritesAndResets runs sustained traffic through links
// that tear writes at byte offsets, stall, and inject mid-stream RSTs.
// Every request must still reach exactly one terminal outcome, most
// must succeed (failover absorbs the resets), reconnects must be
// accounted, and the per-request p99 stays bounded by the IO timeout —
// the tier degrades, it does not hang. The test drives the health
// probes itself, one round after every failed request, so whether a
// downed replica rejoins before the run ends does not depend on how
// the probe ticker's period compares with the run's wall-clock length.
func TestNetChaosTornWritesAndResets(t *testing.T) {
	plan := fault.Plan{
		Seed:       7,
		FaultEvery: 1024,
		Mix:        map[fault.Kind]float64{fault.Tear: 3, fault.Crash: 1, fault.Slow: 1},
		SlowFor:    time.Millisecond,
		TearPause:  time.Millisecond,
	}
	rt, raddr, winProxy, sibProxy := startProxied(t, plan, Config{
		ProbeInterval: time.Hour,
		IOTimeout:     500 * time.Millisecond,
	})
	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 32, 41)

	c, err := wire.Dial(raddr, time.Second, 10*time.Second)
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

	const n = 200
	ok, errs := 0, 0
	lats := make([]time.Duration, 0, n)
	for i := 1; i <= n; i++ {
		start := time.Now()
		if _, err := c.Decode(info.ID, uint64(i), syndromes[i%32], &res); err != nil {
			t.Fatalf("decode %d: client transport error: %v (exactly-one-outcome violated)", i, err)
		}
		lats = append(lats, time.Since(start))
		if res.Status == wire.StatusOK {
			ok++
			continue
		}
		errs++
		for _, rep := range rt.replicas {
			rt.probe(rep)
		}
	}
	if ok+errs != n {
		t.Fatalf("terminal outcomes = %d, want %d", ok+errs, n)
	}
	// Both links carry the same fault plan, so the whole replica set
	// can be down at once: requests then fail fast (correct — fail
	// fast, never hang) until a probe round rejoins a replica. A
	// majority must still succeed.
	if ok < n/2 {
		t.Fatalf("too few successes under torn writes and resets: %d ok, %d errors", ok, errs)
	}
	tears := winProxy.Counters.Of(fault.Tear) + sibProxy.Counters.Of(fault.Tear)
	resets := winProxy.Counters.Of(fault.Crash) + sibProxy.Counters.Of(fault.Crash)
	if tears == 0 || resets == 0 {
		t.Fatalf("plan injected tears=%d resets=%d; the test exercised nothing", tears, resets)
	}
	if rt.reconnects.Load() == 0 {
		t.Fatal("resets severed backend connections but no reconnect was accounted")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	// Worst case per request: ride the primary's IO timeout, then the
	// sibling pass (including its own possible redial). Anything beyond
	// 3x the IO timeout means a request hung instead of failing over.
	if p99 := lats[len(lats)*99/100]; p99 > 1500*time.Millisecond {
		t.Fatalf("p99 %v exceeds the failover bound (IO timeout 500ms)", p99)
	}
}

// measureSlowLink runs sequential decodes through a router whose
// rendezvous winner sits behind a uniformly slow link (25ms per chunk,
// both directions) and returns the worst observed latency. hedge == 0
// disables hedged dispatch. The one hedge that fires draws on the
// bucket's initial burst; the 10s suspension it sets then routes every
// later batch to the sibling first.
func measureSlowLink(t *testing.T, hedge time.Duration) (worst time.Duration, rt *Router) {
	t.Helper()
	plan := fault.Plan{SlowFor: 25 * time.Millisecond}
	rt, raddr, winProxy, _ := startProxied(t, plan, Config{
		ProbeInterval:  20 * time.Millisecond,
		IOTimeout:      2 * time.Second,
		HedgeAfter:     hedge,
		RetryAfterHint: 10 * time.Second,
	})
	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 16, 5)

	c, err := wire.Dial(raddr, time.Second, 10*time.Second)
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

	winProxy.SetKind(fault.Slow)
	defer winProxy.SetKind(fault.Pass)
	const n = 24
	for i := 1; i <= n; i++ {
		start := time.Now()
		if _, err := c.Decode(info.ID, uint64(i), syndromes[i%16], &res); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if res.Status != wire.StatusOK {
			t.Fatalf("decode %d: status %s", i, res.Status)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	return worst, rt
}

// TestRouterHedgeRateCap slows the links so that batches outlast
// HedgeAfter and only the hedge bucket keeps the router from hedging
// every one. The hedges stay within the bucket's burst of hedgeBurst
// plus hedgeMaxRate per batch: a slow link cannot double the load.
// The first case slows the rendezvous winner alone with the outlier
// suspension off, so every batch routes to it first; the second slows
// both links under the shipped suspension, where each fired hedge
// suspends its primary and the next batch starts on the other link.
func TestRouterHedgeRateCap(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bothSlow bool
		hint     time.Duration // Config.RetryAfterHint; 0 ships the default
		batches  int
	}{
		// A fired hedge suspends the slow replica for the hint; a
		// nanosecond keeps routing every batch to it first.
		{name: "winner slow, suspension off", hint: time.Nanosecond, batches: 32},
		{name: "both slow, default suspension", bothSlow: true, batches: 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, raddr, winProxy, sibProxy := startProxied(t, fault.Plan{SlowFor: 10 * time.Millisecond}, Config{
				ProbeInterval:  time.Hour,
				IOTimeout:      2 * time.Second,
				HedgeAfter:     5 * time.Millisecond,
				RetryAfterHint: tc.hint,
			})
			model, _ := clusterModel(t)
			syndromes := sampleSyndromes(model, 16, 5)
			c, err := wire.Dial(raddr, time.Second, 10*time.Second)
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

			winProxy.SetKind(fault.Slow)
			if tc.bothSlow {
				sibProxy.SetKind(fault.Slow)
			}
			for i := 1; i <= tc.batches; i++ {
				if _, err := c.Decode(info.ID, uint64(i), syndromes[i%16], &res); err != nil {
					t.Fatalf("decode %d: %v", i, err)
				}
				if res.Status != wire.StatusOK {
					t.Fatalf("decode %d: status %s", i, res.Status)
				}
			}
			hedges := rt.hedges.Load()
			if hedges == 0 {
				t.Fatal("hedging never fired on the slow link")
			}
			if limit := hedgeBurst + hedgeMaxRate*float64(tc.batches); float64(hedges) > limit {
				t.Fatalf("%d hedges over %d batches, above the cap %.1f", hedges, tc.batches, limit)
			}
			t.Logf("%d hedges over %d batches", hedges, tc.batches)
		})
	}
}

// TestRouterStalledReplicaKeepsSiblingKeys blackholes one replica's
// link while 64 client connections keyed to it each hold a 64-lane run
// in flight: 4 096 lanes, each waiting out the IO timeout. A 65th
// connection keyed to the healthy sibling must be answered StatusOK on
// every lane meanwhile, because each connection forwards its own run
// over its own backend connections and nothing the stalled replica
// holds is in its way. The stalled runs then fail over to the sibling.
func TestRouterStalledReplicaKeepsSiblingKeys(t *testing.T) {
	model, factory := clusterModel(t)
	srvA, addrA := startReplica(t, replicaConfig(), nil)
	srvB, addrB := startReplica(t, replicaConfig(), nil)
	var proxies []*fault.Proxy
	for _, addr := range []string{addrA, addrB} {
		p, err := fault.Start(addr, fault.Plan{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		proxies = append(proxies, p)
	}
	rt, raddr := startRouter(t, Config{
		Replicas:      []string{proxies[0].Addr(), proxies[1].Addr()},
		ProbeInterval: time.Hour,
		IOTimeout:     2 * time.Second,
	})
	stalled := rt.pick(hash64(testKey), nil)
	stalledProxy := proxies[stalled.idx]
	// A second key whose rendezvous winner is the sibling.
	sibKey := ""
	for i := 0; sibKey == ""; i++ {
		if k := fmt.Sprintf("%s/sib%d", testKey, i); rt.pick(hash64(k), nil) != stalled {
			sibKey = k
		}
	}
	for _, srv := range []*serve.Server{srvA, srvB} {
		if _, err := srv.Register(sibKey, model, "BP(30)", factory); err != nil {
			t.Fatal(err)
		}
	}
	syndromes := sampleSyndromes(model, 64, 17)

	const conns = 64
	held := make([]*wire.Client, conns)
	ids := make([]uint16, conns)
	for i := range held {
		c, err := wire.Dial(raddr, time.Second, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		info, err := c.Hello(testKey)
		if err != nil {
			t.Fatal(err)
		}
		held[i], ids[i] = c, info.ID
	}
	stalledProxy.SetKind(fault.Blackhole)
	for i, c := range held {
		for j, syn := range syndromes {
			c.QueueDecode(ids[i], uint64(j+1), syn)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Every held run has reached the stalled link once the link has
	// swallowed a chunk per connection.
	deadline := time.Now().Add(5 * time.Second)
	for stalledProxy.Counters.Of(fault.Blackhole) < conns {
		if time.Now().After(deadline) {
			t.Fatalf("only %d chunks reached the stalled link", stalledProxy.Counters.Of(fault.Blackhole))
		}
		runtime.Gosched()
	}

	c, err := wire.Dial(raddr, time.Second, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Hello(sibKey)
	if err != nil {
		t.Fatal(err)
	}
	var res wire.Result
	wire.SizeResult(&res, info.NumMech, info.NumObs)
	start := time.Now()
	for j, syn := range syndromes {
		c.QueueDecode(info.ID, uint64(j+1), syn)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for j := range syndromes {
		h, err := c.ReadResult(&res)
		if err != nil {
			t.Fatalf("sibling lane %d: %v", j, err)
		}
		if h.ReqID != uint64(j+1) || res.Status != wire.StatusOK {
			t.Fatalf("sibling lane %d: req %d status %s, want StatusOK", j, h.ReqID, res.Status)
		}
	}
	if d := time.Since(start); d >= 2*time.Second {
		t.Fatalf("sibling run took %v, not inside the stalled runs' IO timeout", d)
	}

	for i, c := range held {
		for j := range syndromes {
			h, err := c.ReadResult(&res)
			if err != nil {
				t.Fatalf("held conn %d lane %d: %v", i, j, err)
			}
			if h.ReqID != uint64(j+1) || res.Status != wire.StatusOK {
				t.Fatalf("held conn %d lane %d: req %d status %s, want the sibling's StatusOK", i, j, h.ReqID, res.Status)
			}
		}
	}
}

// TestNetChaosHedgedSlowLinkP99 is the hedging keystone: with the
// rendezvous winner behind a uniformly slow link, hedged dispatch must
// cut the worst-case client latency to less than half of the unhedged
// run (asserted: 2 × hedged worst < unhedged worst, over 24 requests
// each) — the first slow batch hedges onto the sibling and the outlier
// ejection routes the rest there directly. No benchmark workload has a
// slow link, so this test is the only holder of the hedging claim; CI
// runs it under -race in the "Network chaos smoke" -run NetChaos set.
func TestNetChaosHedgedSlowLinkP99(t *testing.T) {
	slow, rtOff := measureSlowLink(t, 0)
	fast, rtOn := measureSlowLink(t, 5*time.Millisecond)

	if got := rtOff.hedges.Load(); got != 0 {
		t.Fatalf("hedging fired %d times while disabled", got)
	}
	if rtOn.hedges.Load() == 0 || rtOn.hedgeWins.Load() == 0 {
		t.Fatalf("hedging never fired on the slow link: hedges=%d wins=%d",
			rtOn.hedges.Load(), rtOn.hedgeWins.Load())
	}
	if 2*fast >= slow {
		t.Fatalf("hedged worst-case %v is not under half the unhedged %v", fast, slow)
	}
	t.Logf("slow-link worst-case latency: unhedged %v, hedged %v", slow, fast)
}
