package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// Run shape, identical for every workload: rounds of one closed-loop
// and one paced segment each. An untraced run has measuredRounds of
// them; a traced run brackets one traced round between two untraced
// ones, so that tracing overhead is read against its neighbours and not
// against another process.
const (
	measuredRounds = 5
	// A run builds the workload from nothing setupRepeats times and tears
	// all but the last build down; setup_s is the median, as the driver's
	// contract asks ("set up several times in a run and report the
	// median"): the first build of a process pays for page faults and the
	// runtime's lazy start of its network poller, which no later one does.
	setupRepeats = 5
)

// options are the knobs of one run that are not part of the workload.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// traceFile receives the Chrome trace of a traced run ("" = none).
	traceFile string
	// The rest shrinks a run for the package's own tests; measurements
	// use measureOptions. poolScale divides the pool, setups is the number
	// of set-ups, tail the number of samples a percentile needs beyond it.
	poolScale int
	setups    int
	tail      int
}

// measureOptions are the options of a real measurement.
func measureOptions(seed uint64, seconds float64, trace bool) options {
	return options{seed: seed, seconds: seconds, trace: trace,
		poolScale: 1, setups: setupRepeats, tail: tailSamples}
}

// measured is one reported number.
type measured struct {
	Name    string    `json:"name"`
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Rounds  []float64 `json:"rounds,omitempty"`
}

// result is everything one workload run reports.
type result struct {
	Workload  string     `json:"workload"`
	PoolHash  string     `json:"pool_hash"`
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Problems  []string   `json:"problems,omitempty"`
	EndToEnd  []measured `json:"end_to_end"`
	Gates     []measured `json:"gates"`
	// PerLayer is the traced run's ledger; an untraced run has none.
	PerLayer []measured `json:"per_layer,omitempty"`
	// Budget is the traced run's account of where a request's time went.
	Budget []string `json:"budget,omitempty"`
}

// metricSet collects values by name and renders them in the order and
// with the units of a definition table, so that nothing unlisted can be
// emitted and nothing listed can be forgotten.
type metricSet map[string]measured

func (m metricSet) put(name string, v float64) { m[name] = measured{Value: v} }

// putRounds records the median of per-round values, and the values.
func (m metricSet) putRounds(name string, rounds []float64, samples int) {
	m[name] = measured{Value: median(rounds), Samples: samples, Rounds: rounds}
}

func (m metricSet) putN(name string, v float64, samples int) {
	m[name] = measured{Value: v, Samples: samples}
}

// render lists defs in order; a per-layer metric nobody set reads 0,
// which is what a layer the workload bypasses did.
func (m metricSet) render(defs []metricDef) []measured {
	out := make([]measured, len(defs))
	for i, d := range defs {
		v := m[d.Name]
		v.Name, v.Unit = d.Name, d.Unit
		out[i] = v
	}
	return out
}

// round is one closed-loop segment followed by one paced segment.
type round struct {
	closed, paced *segment
}

// runState is one workload run between set-up and teardown.
type runState struct {
	e       *env
	sp      *spec
	opt     options
	p       *pool
	clients []*client
	tracers []*tracer // one per client on a traced run, else nil
	segDur  time.Duration
	m       metricSet
	res     *result
	// total counts every request of every phase, for failed_share.
	total tally
	// plain are the untraced rounds, traced the traced one; window is
	// what the servers' own counters saw during the traced round.
	plain  []round
	traced round
	window serveCounters
}

func (rs *runState) problem(format string, args ...any) {
	rs.res.Problems = append(rs.res.Problems, fmt.Sprintf(format, args...))
}

// runWorkload performs one full run of sp: set-up (repeated), pool,
// verify pass, rounds, per-layer ledger when traced, teardown.
func runWorkload(ctx context.Context, sp *spec, opt options) (*result, error) {
	baseline := runtime.NumGoroutine()
	rs := &runState{sp: sp, opt: opt, m: metricSet{}, res: &result{Workload: sp.name}}

	warm := func(model *dem.Model) gf2.Vec {
		rng := rand.New(rand.NewPCG(opt.seed, sp.index^0x5e7))
		return model.Syndrome(model.Sample(rng))
	}
	var setupS, decoupleS []float64
	for i := 0; i < opt.setups; i++ {
		if rs.e != nil {
			if err := rs.e.teardown(ctx); err != nil {
				return nil, fmt.Errorf("teardown between set-ups: %w", err)
			}
			if err := settleGoroutines(baseline); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if rs.e, err = setup(ctx, sp, warm); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		decoupleS = append(decoupleS, rs.e.decoupleS)
	}
	rs.m.putRounds("setup_s", setupS, len(setupS))
	rs.m.putRounds("decouple.decouple_s", decoupleS, len(decoupleS))

	err := rs.measure(ctx)
	if terr := rs.e.teardown(ctx); terr != nil {
		err = errors.Join(err, fmt.Errorf("teardown: %w", terr))
	}
	if serr := settleGoroutines(baseline); serr != nil {
		err = errors.Join(err, serr)
	}
	if err != nil {
		return nil, err
	}
	rs.res.EndToEnd = rs.m.render(endToEndDefs)
	rs.res.Gates = rs.m.render(gateDefs)
	if opt.trace {
		rs.res.PerLayer = rs.m.render(layerDefs)
	}
	rs.res.Correct = len(rs.res.Problems) == 0
	return rs.res, nil
}

// measure runs everything between set-up and teardown.
func (rs *runState) measure(ctx context.Context) error {
	rs.p = samplePool(rs.e.model, rs.sp.pool/rs.opt.poolScale, rs.opt.seed, rs.sp.index)
	rs.res.PoolHash = fmt.Sprintf("%016x", rs.p.hash)
	rs.clients = newClients(rs.e)

	ver, err := verifyPass(ctx, rs.clients, rs.p)
	if err != nil {
		return err
	}
	rs.total.add(ver.tally)
	n := len(rs.p.syn)
	rs.m.putN("logical_error_rate", float64(ver.logical)/float64(n), n)
	rs.m.putN("decode_success_share", 1-float64(ver.logical)/float64(n), n)
	rs.m.putN("unsatisfied_share", float64(ver.unsat)/float64(n), n)
	rs.m.put("harness.verify_s", ver.wallS)
	if rs.sp.vegapunk && ver.unsat > 0 {
		rs.problem("%d of %d Vegapunk corrections have D·ê ≠ s; the decoder guarantees none", ver.unsat, n)
	}
	if ver.err != nil {
		rs.problem("verify pass: %v", ver.err)
	}

	plan := make([]bool, measuredRounds) // plan[i]: is round i traced
	rs.segDur = time.Duration(rs.opt.seconds / float64(2*measuredRounds) * float64(time.Second))
	if rs.opt.trace {
		plan = []bool{false, true, false}
		// An eighth each, which leaves a quarter of the run for the
		// ledger's own measurements.
		rs.segDur = time.Duration(rs.opt.seconds / 8 * float64(time.Second))
		for i := range rs.clients {
			rs.tracers = append(rs.tracers, newTracer(i))
		}
	}
	for _, traced := range plan {
		if err := rs.round(ctx, traced); err != nil {
			return err
		}
	}
	if err := rs.endToEnd(); err != nil {
		return err
	}
	if rs.opt.trace {
		if err := rs.ledger(ctx); err != nil {
			return err
		}
	}

	rs.res.Attempted, rs.res.Failed = rs.total.requests, rs.total.failed
	rs.m.putN("failed_share", float64(rs.total.failed)/float64(rs.total.requests), rs.total.requests)
	rs.m.putN("serve.degraded_share", float64(rs.total.degraded)/float64(rs.total.lanes), rs.total.lanes)
	if rs.total.failed > 0 {
		rs.problem("%d of %d requests failed", rs.total.failed, rs.total.requests)
	}
	return nil
}

// round runs one closed-loop and one paced segment.
func (rs *runState) round(ctx context.Context, traced bool) error {
	var trs []*tracer
	var before serveCounters
	if traced {
		trs = rs.tracers
		var err error
		if before, err = scrapeServe(rs.e); err != nil {
			return err
		}
	}
	cl, err := runClosed(ctx, rs.clients, trs, rs.p, rs.segDur)
	if err != nil {
		return err
	}
	pa, err := runPaced(ctx, rs.clients, trs, rs.p, rs.segDur, rs.sp.pacedRate, rs.sp.limitUs)
	if err != nil {
		return err
	}
	for _, s := range []*segment{cl, pa} {
		rs.total.add(s.tally)
		if s.err != nil {
			rs.problem("%v", s.err)
		}
	}
	if !traced {
		rs.plain = append(rs.plain, round{cl, pa})
		return nil
	}
	after, err := scrapeServe(rs.e)
	if err != nil {
		return err
	}
	rs.window = after.since(before)
	rs.traced = round{cl, pa}
	return nil
}

// endToEnd reduces the untraced rounds to the end-to-end metrics: each
// is the median of the per-round values, and a percentile is taken over
// all the requests of one round's segment. A stall that hits a round
// shows in that round's tail and throughput; one that hits three rounds
// moves the metric. A round the host slowed down so far that its segment
// cannot support a percentile gives that percentile no value, and the
// run fails unless most rounds gave one. harness.round_spread_share
// keeps the round-to-round spread of throughput on record.
func (rs *runState) endToEnd() error {
	closed, paced := map[string][]float64{}, map[string][]float64{}
	short := map[string]error{}
	var late []float64
	fewestClosed, fewestPaced := math.MaxInt, math.MaxInt
	for i, r := range rs.plain {
		cl, pa := r.closed, r.paced
		if cl.lanes == 0 || pa.lanes == 0 {
			return fmt.Errorf("round %d: a segment of %v finished no request", i, rs.segDur)
		}
		fewestClosed, fewestPaced = min(fewestClosed, len(cl.lat)), min(fewestPaced, len(pa.lat))
		late = append(late, pa.late...)
		closed["throughput_syn_per_s"] = append(closed["throughput_syn_per_s"], cl.syndromesPerS())
		closed["cpu_us_per_syn"] = append(closed["cpu_us_per_syn"], cl.cpuUs/float64(cl.lanes))
		closed["allocs_per_syn"] = append(closed["allocs_per_syn"], float64(cl.mallocs)/float64(cl.lanes))
		paced["paced_miss_share"] = append(paced["paced_miss_share"], float64(pa.missed)/float64(pa.scheduled))
		for _, p := range []struct {
			into map[string][]float64
			name string
			lat  []float64
			q    float64
		}{
			{closed, "sat_latency_p50_us", cl.lat, 0.5},
			{closed, "sat_latency_p99_us", cl.lat, 0.99},
			{paced, "paced_latency_p50_us", pa.lat, 0.5},
			{paced, "paced_latency_p99_us", pa.lat, 0.99},
		} {
			v, _, err := percentile(p.lat, p.q, rs.opt.tail)
			if err != nil {
				short[p.name] = fmt.Errorf("%s, round %d of %v segments: %w", p.name, i, rs.segDur, err)
				continue
			}
			p.into[p.name] = append(p.into[p.name], v)
		}
	}
	for name, err := range short {
		if gave := len(closed[name]) + len(paced[name]); 2*gave <= len(rs.plain) {
			return err
		}
	}
	// Samples is the request count of the round that had the fewest.
	for name, rounds := range closed {
		rs.m.putRounds(name, rounds, fewestClosed)
	}
	for name, rounds := range paced {
		rs.m.putRounds(name, rounds, fewestPaced)
	}
	rs.m.put("harness.round_spread_share", spreadShare(closed["throughput_syn_per_s"]))
	sort.Float64s(late)
	lateP99, _, err := percentile(late, 0.99, rs.opt.tail)
	if err != nil {
		return fmt.Errorf("harness.generator_late_us_p99: %w", err)
	}
	rs.m.putN("harness.generator_late_us_p99", lateP99, len(late))
	return nil
}
