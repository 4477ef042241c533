package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"vegapunk/internal/accel"
	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
	"vegapunk/internal/obs"
	"vegapunk/internal/wire"
)

// The per-layer ledger of a traced run. Every row times a layer through
// its public entry point on the workload's own model and pool; a layer
// the workload does not use keeps its 0. Sample counts are fixed, not
// time-boxed, so that the counts marked exact in defs.go repeat for a
// seed.
const (
	// kernelSamples bounds the decoder-kernel rows: enough for a p99 with
	// a tail, few enough that BB[[144,12,12]] at ~1 ms a decode fits.
	kernelSamples = 1280
	// baselineSamples bounds the BP+OSD and BP+LSD rows, whose fallbacks
	// run to milliseconds on the circuit-level model.
	baselineSamples = 1280
	codecIters      = 200000
	rttSamples      = 2000
)

// sink keeps measured results alive so the compiler cannot drop the
// calls that produce them.
var sink uint64

// ledger fills the per-layer metrics from the traced round and the
// layers' own entry points.
func (rs *runState) ledger(ctx context.Context) error {
	rs.m.put("harness.calibration_ns", calibrate())
	rs.m.put("decouple.blocks", 0)
	if rs.e.dec != nil {
		rs.m.put("decouple.blocks", float64(rs.e.dec.K))
	}
	rs.ledgerGF2()
	var err error
	if rs.sp.vegapunk {
		err = rs.ledgerHier()
	} else {
		err = rs.ledgerBP()
	}
	if err != nil {
		return err
	}
	if rs.sp.path == pathServe {
		if err := rs.ledgerBaselines(); err != nil {
			return err
		}
		if err := rs.ledgerTracerCost(ctx); err != nil {
			return err
		}
	}
	if rs.sp.path != pathDirect {
		if err := rs.ledgerServe(); err != nil {
			return err
		}
	}
	if rs.sp.path == pathWire || rs.sp.path == pathRouter {
		if err := rs.ledgerWire(); err != nil {
			return err
		}
	}
	if rs.sp.path == pathRouter {
		if err := rs.ledgerCluster(ctx); err != nil {
			return err
		}
	}

	// Tracing overhead: the traced round's closed-loop throughput against
	// the untraced rounds either side of it.
	var ref []float64
	for _, r := range rs.plain {
		ref = append(ref, r.closed.syndromesPerS())
	}
	rs.m.put("harness.tracing_overhead_share", 1-rs.traced.closed.syndromesPerS()/mean(ref))
	rs.selfTimes()

	if rs.opt.traceFile == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(rs.opt.traceFile), 0o755); err != nil {
		return err
	}
	f, err := os.Create(rs.opt.traceFile)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, rs.sp.name, rs.tracers); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return fmt.Errorf("write %s: %w", rs.opt.traceFile, err)
	}
	return f.Close()
}

// calibrate times a fixed loop of integer arithmetic and scattered
// reads of an 8 MiB table, so that artifacts from hosts of different
// speed can be put side by side — and so that a run made while another
// tenant was hammering the shared cache says so: that, not stolen CPU
// time, is what slows the decoders down on the reference host.
func calibrate() float64 {
	table := make([]uint64, 1<<20)
	x := uint64(88172645463325252)
	t0 := clock()
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&(1<<20-1)] += x
	}
	ns := clock() - t0
	sink += x + table[0]
	return float64(ns)
}

// loopNs is the mean time of f over n back-to-back calls, for calls too
// short to time one by one.
func loopNs(n int, f func(i int)) float64 {
	t0 := clock()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(clock()-t0) / float64(n)
}

// eachUs times n calls of f one by one and returns the sorted times.
func eachUs(n int, f func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := clock()
		f(i)
		out[i] = float64(clock()-t0) / 1e3
	}
	sort.Float64s(out)
	return out
}

// putDist records the mean (or median) and p99 of sorted under prefix.
func (rs *runState) putDist(centre, p99 string, sorted []float64, useMedian bool) error {
	c := mean(sorted)
	if useMedian {
		c = median(sorted)
	}
	v, _, err := percentile(sorted, 0.99, rs.opt.tail)
	if err != nil {
		return fmt.Errorf("%s: %w", p99, err)
	}
	rs.m.putN(centre, c, len(sorted))
	rs.m.putN(p99, v, len(sorted))
	return nil
}

func (rs *runState) kernelPool(limit int) []gf2.Vec {
	return rs.p.syn[:min(limit, len(rs.p.syn))]
}

func (rs *runState) ledgerGF2() {
	model, syn := rs.e.model, rs.kernelPool(4096)
	// D·e over errors of the pool's weight: what serve's copy-out and the
	// harness's own check both pay per answer.
	e := make([]gf2.Vec, 64)
	dec := rs.e.factory()
	for i := range e {
		est, _ := dec.Decode(syn[i])
		e[i] = est.Clone()
	}
	s := gf2.NewVec(model.NumDet)
	rs.m.put("gf2.mulvec_ns", loopNs(codecIters, func(i int) { model.SyndromeInto(s, e[i%len(e)]) }))
	packed := make([]uint64, model.NumDet)
	nb := len(syn) / 64
	rs.m.put("gf2.pack64_ns", loopNs(codecIters/16, func(i int) {
		b := i % nb
		gf2.PackLanesInto(packed, syn[b*64:(b+1)*64])
	}))
	sink += packed[0] + s.Word(0)
}

// batch64PerSyn is the per-syndrome time of core.DecodeBatch over the
// 64-lane batches of syn.
func batch64PerSyn(dec core.Decoder, numMech int, syn []gf2.Vec) float64 {
	outs := make([]gf2.Vec, 64)
	for i := range outs {
		outs[i] = gf2.NewVec(numMech)
	}
	stats := make([]core.Stats, 64)
	nb := len(syn) / 64
	return loopNs(nb, func(b int) { core.DecodeBatch(dec, syn[b*64:(b+1)*64], outs, stats) }) / 64 / 1e3
}

func (rs *runState) ledgerBP() error {
	syn := rs.kernelPool(4096)
	dec := rs.e.factory()
	iters, conv := 0, 0
	scalar := eachUs(len(syn), func(i int) {
		_, st := dec.Decode(syn[i])
		iters += st.BPIters
		if st.BPConverged {
			conv++
		}
	})
	if err := rs.putDist("bp.scalar_us_mean", "bp.scalar_us_p99", scalar, false); err != nil {
		return err
	}
	n := float64(len(syn))
	rs.m.putN("bp.iters_mean", float64(iters)/n, len(syn))
	rs.m.putN("bp.converged_share", float64(conv)/n, len(syn))
	batch := batch64PerSyn(dec, rs.e.model.NumMech(), syn)
	rs.m.putN("bp.batch64_us_per_syn", batch, len(syn))
	rs.m.put("bp.batch_lane_gain", mean(scalar)/batch)
	return nil
}

func (rs *runState) ledgerHier() error {
	syn := rs.kernelPool(kernelSamples)
	dec := rs.e.factory()
	params := accel.DefaultParams()
	var outerIt, cands, blocks int
	var fpgaNs float64
	// core.Vegapunk.Decode is hier.Decoder.Decode plus the wrapping of its
	// trace into core.Stats, so the scalar row times hier through it.
	scalar := eachUs(len(syn), func(i int) {
		_, st := dec.Decode(syn[i])
		outerIt += st.Hier.OuterIters
		cands += st.Hier.Candidates
		blocks += st.Hier.BlockDecodes
		fpgaNs += float64(params.FromTrace(rs.e.dec, st.Hier).Latency)
	})
	if err := rs.putDist("hier.scalar_us_p50", "hier.scalar_us_p99", scalar, true); err != nil {
		return err
	}
	n := float64(len(syn))
	rs.m.putN("hier.outer_iters_mean", float64(outerIt)/n, len(syn))
	rs.m.putN("hier.candidates_mean", float64(cands)/n, len(syn))
	rs.m.putN("hier.block_decodes_mean", float64(blocks)/n, len(syn))
	rs.m.putN("accel.vegapunk_fpga_ns_mean", fpgaNs/n, len(syn))
	rs.m.put("accel.vegapunk_fpga_ns_worst", float64(params.WorstCase(rs.e.dec, hier.Config{}).Latency))
	batch := batch64PerSyn(dec, rs.e.model.NumMech(), syn)
	rs.m.putN("hier.batch64_us_per_syn", batch, len(syn))
	rs.m.put("hier.batch_lane_gain", mean(scalar)/batch)
	return nil
}

// ledgerBaselines times the paper's accuracy baselines on the pool. No
// workload serves them, so they move no end-to-end metric; they are the
// ledger rows a change to osd or lsd is read against.
func (rs *runState) ledgerBaselines() error {
	syn := rs.kernelPool(baselineSamples)
	bposd := core.NewBPOSD(rs.e.model, bpIters, 7)
	fallbacks := 0
	us := eachUs(len(syn), func(i int) {
		if _, st := bposd.Decode(syn[i]); st.Fallback {
			fallbacks++
		}
	})
	if err := rs.putDist("osd.bposd_cs7_us_mean", "osd.bposd_cs7_us_p99", us, false); err != nil {
		return err
	}
	rs.m.putN("osd.fallback_share", float64(fallbacks)/float64(len(syn)), len(syn))
	bplsd := core.NewBPLSD(rs.e.model)
	us = eachUs(len(syn), func(i int) { bplsd.Decode(syn[i]) })
	return rs.putDist("lsd.bplsd_us_mean", "lsd.bplsd_us_p99", us, false)
}

// ledgerTracerCost measures what serve's own span recording costs:
// closed-loop segments against the workload's server alternate with
// segments against a twin built with vegapunkd's 1-in-8 tracer, and the
// two sides' median segment throughputs are compared.
func (rs *runState) ledgerTracerCost(ctx context.Context) (err error) {
	twinSpec := *rs.sp
	twinSpec.serve.Tracer = obs.NewTracer(obs.TracerConfig{SampleEvery: 8})
	twin, err := setup(ctx, &twinSpec, func(*dem.Model) gf2.Vec { return rs.p.syn[0] })
	if err != nil {
		return fmt.Errorf("tracer twin: %w", err)
	}
	defer func() {
		if terr := twin.teardown(ctx); err == nil {
			err = terr
		}
	}()
	sides := [2][]*client{rs.clients, newClients(twin)}
	var syn [2][]float64
	// The first pair warms the twin's pool and freelists and is dropped.
	for i := 0; i < 4; i++ {
		for side, clients := range sides {
			seg, err := runClosed(ctx, clients, nil, rs.p, rs.segDur/3)
			if err != nil {
				return err
			}
			rs.total.add(seg.tally)
			if seg.err != nil {
				rs.problem("tracer twin: %v", seg.err)
			}
			if i > 0 {
				syn[side] = append(syn[side], seg.syndromesPerS())
			}
		}
	}
	rs.m.put("obs.serve_tracer_cost_share", 1-median(syn[1])/median(syn[0]))
	return nil
}

// ledgerServe reports the traced round's blocking-path stage times and
// the servers' own counters, and writes the request's time budget.
func (rs *runState) ledgerServe() error {
	st := rs.traced.closed.stages
	st.merge(&rs.traced.paced.stages)
	if st.n == 0 {
		return fmt.Errorf("traced round recorded no request")
	}
	n := float64(st.n)
	wall, queue, decode, copied := st.wall/n, st.queue/n, st.decode/n, st.copied/n
	// Over sockets, what the replica does not account for is network in
	// the wide sense: codec, syscalls, loopback and, when routed, the
	// relay. In process there is no network and it is all residual.
	net, residual := 0.0, wall-queue-decode-copied
	if rs.sp.path != pathServe {
		net, residual = residual, 0
	}
	rs.m.putN("harness.request_wall_us_mean", wall, st.n)
	rs.m.putN("serve.queue_wait_us_mean", queue, st.n)
	rs.m.putN("serve.batch_assemble_us_mean", st.assemble/n, st.n)
	rs.m.putN("serve.decode_us_mean", decode, st.n)
	rs.m.putN("serve.copy_out_us_mean", copied, st.n)
	rs.m.putN("serve.residual_us_mean", residual, st.n)
	rs.m.putN("wire.net_us_mean", net, st.n)
	sort.Float64s(st.queueUs)
	p99, _, err := percentile(st.queueUs, 0.99, rs.opt.tail)
	if err != nil {
		return fmt.Errorf("serve.queue_wait_us_p99: %w", err)
	}
	rs.m.putN("serve.queue_wait_us_p99", p99, st.n)
	rs.res.Budget = append(rs.res.Budget, fmt.Sprintf(
		"request wall %.1f us = queue_wait %.1f + decode %.1f + copy_out %.1f + net %.1f + residual %.1f (slowest lane of %d traced requests; batch_assemble %.1f lies inside queue_wait)",
		wall, queue, decode, copied, net, residual, st.n, st.assemble/n))

	if rs.window.batches > 0 {
		rs.m.put("serve.batch_size_mean", rs.window.batchSyndromes/rs.window.batches)
	}
	end, err := scrapeServe(rs.e)
	if err != nil {
		return err
	}
	rs.m.put("serve.shed_total", end.shed)
	var hits, misses uint64
	for _, svc := range rs.e.svcs {
		hits += svc.Pool().Hits()
		misses += svc.Pool().Misses()
	}
	rs.m.put("serve.pool_miss_share", float64(misses)/float64(hits+misses))
	if end.shed > 0 {
		rs.problem("servers shed %.0f requests; the accuracy numbers of this run are not comparable", end.shed)
	}
	return nil
}

func (rs *runState) ledgerWire() error {
	syn := rs.p.syn[0]
	var buf []byte
	rs.m.put("wire.append_decode_ns", loopNs(codecIters, func(i int) {
		buf = wire.AppendDecode(buf[:0], 1, uint64(i), syn)
	}))
	// A result as the workload's replies carry it: one correction and one
	// observable vector of the model's size.
	var src, dst wire.Result
	wire.SizeResult(&src, rs.e.model.NumMech(), rs.e.model.NumObs)
	wire.SizeResult(&dst, rs.e.model.NumMech(), rs.e.model.NumObs)
	payload := wire.AppendResult(nil, 0, 1, 1, &src)[wire.HeaderSize:]
	var perr error
	rs.m.put("wire.parse_result_ns", loopNs(codecIters, func(int) {
		if err := wire.ParseResultInto(&dst, payload); err != nil {
			perr = err
		}
	}))
	if perr != nil {
		return fmt.Errorf("wire.parse_result_ns: %w", perr)
	}
	sink += uint64(len(buf))

	cl := rs.e.conns[0].(*wireConn).cl
	var pingErr error
	rtt := eachUs(rttSamples, func(int) {
		if _, err := cl.Ping(); err != nil {
			pingErr = err
		}
	})
	if pingErr != nil {
		return fmt.Errorf("wire.ping_rtt_us_p50: %w", pingErr)
	}
	rs.m.putN("wire.ping_rtt_us_p50", median(rtt), len(rtt))
	return nil
}

// ledgerCluster sends the same single-client traffic through the router
// and straight at the replica that wins the model's rendezvous hash;
// the difference of the medians is what the relay costs.
func (rs *runState) ledgerCluster(ctx context.Context) error {
	counts, err := scrapeServe(rs.e)
	if err != nil {
		return err
	}
	winner := 0
	for i, n := range counts.requestsBy {
		if n > counts.requestsBy[winner] {
			winner = i
		}
	}
	routed, err := dialWire(rs.e.routerAddr, rs.e.key)
	if err != nil {
		return err
	}
	defer routed.close()
	direct, err := dialWire(rs.e.replicaAddrs[winner], rs.e.key)
	if err != nil {
		return err
	}
	defer direct.close()
	// The probes are clients like the load's own, so every answer is
	// verified and counted in failed_share. The two paths alternate
	// request by request so that drift lands on both.
	probes := [2]*client{newClient(0, routed, rs.e), newClient(0, direct, rs.e)}
	nReq := len(rs.p.syn) / rs.sp.lanes
	for i := 0; i < rttSamples; i++ {
		for _, c := range probes {
			t := clock()
			c.issue(ctx, rs.p, i%nReq, t, t)
		}
	}
	for _, c := range probes {
		rs.total.add(c.tally)
		if c.err != nil {
			rs.problem("relay overhead probe: %v", c.err)
		}
	}
	r, d := median(probes[0].lat), median(probes[1].lat)
	rs.m.putN("cluster.routed_rtt_us_p50", r, rttSamples)
	rs.m.putN("cluster.direct_rtt_us_p50", d, rttSamples)
	rs.m.put("cluster.relay_overhead_us_p50", r-d)
	rs.m.put("cluster.relay_overhead_share", (r-d)/r)
	rs.res.Budget = append(rs.res.Budget, fmt.Sprintf(
		"one client, one request at a time: routed %.1f us = direct %.1f + relay %.1f", r, d, r-d))

	fam, err := scrape(rs.e.router.Handler())
	if err != nil {
		return err
	}
	for metric, family := range map[string]string{
		"cluster.retries_total":            "vegapunk_router_retries_total",
		"cluster.hedges_total":             "vegapunk_router_hedges_total",
		"cluster.reconnects_total":         "vegapunk_router_reconnects_total",
		"cluster.admission_rejected_total": "vegapunk_router_admission_rejected_total",
	} {
		v, ok := fam[family]
		if !ok {
			return fmt.Errorf("router /metrics has no family %s", family)
		}
		rs.m.put(metric, sum(v))
	}
	return nil
}

// selfTimes adds each span kind's count, total and self time (total
// minus the children it covers) to the run's budget.
func (rs *runState) selfTimes() {
	var count, total, self [numSpanKinds]int64
	dropped := 0
	for _, t := range rs.tracers {
		dropped += t.dropped
		for k := range count {
			count[k] += t.count[k]
			total[k] += t.total[k]
			self[k] += t.self[k]
		}
	}
	for k, name := range spanNames {
		if count[k] == 0 {
			continue
		}
		rs.res.Budget = append(rs.res.Budget, fmt.Sprintf("span %-24s n=%-8d total %10.1f ms  self %10.1f ms  self/call %8.2f us",
			name, count[k], float64(total[k])/1e6, float64(self[k])/1e6, float64(self[k])/float64(count[k])/1e3))
	}
	if dropped > 0 {
		rs.res.Budget = append(rs.res.Budget, fmt.Sprintf("trace file keeps the first %d spans per client; %d later spans are in the totals only", maxKeptSpans, dropped))
	}
}

// serveCounters are the servers' own /metrics readings the ledger uses.
type serveCounters struct {
	batches, batchSyndromes, shed float64
	// requestsBy is vegapunk_serve_requests_total per server.
	requestsBy []float64
}

func (c serveCounters) since(before serveCounters) serveCounters {
	c.batches -= before.batches
	c.batchSyndromes -= before.batchSyndromes
	c.shed -= before.shed
	return c
}

// scrapeServe reads every server's /metrics in process, through the
// handler an operator's scraper would hit.
func scrapeServe(e *env) (serveCounters, error) {
	var c serveCounters
	for _, srv := range e.servers {
		fam, err := scrape(srv.Handler())
		if err != nil {
			return c, err
		}
		c.batches += sum(fam["vegapunk_serve_batch_size_count"])
		c.batchSyndromes += sum(fam["vegapunk_serve_batch_size_sum"])
		c.shed += sum(fam["vegapunk_serve_shed_total"])
		c.requestsBy = append(c.requestsBy, sum(fam["vegapunk_serve_requests_total"]))
	}
	return c, nil
}

func sum(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

// scrape renders h's /metrics and returns every sample by series name,
// labels dropped.
func scrape(h http.Handler) (map[string][]float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	out := map[string][]float64{}
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		out[name] = append(out[name], v)
	}
	return out, sc.Err()
}
