package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesHarness holds BENCHMARK.json and the
// harness's own tables in step, and checks the file against the limits
// the driver refuses a benchmark for.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := readBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(bf.Paths, []string{"benchmark"}) {
		t.Errorf("command %q paths %q: want go run ./benchmark over benchmark", bf.Command, bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs from endToEndDefs:\nfile    %+v\nharness %+v", bf.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(bf.PerLayer, tracedDefs()) {
		t.Errorf("per_layer differs from gateDefs + layerDefs:\nfile    %+v\nharness %+v", bf.PerLayer, tracedDefs())
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the file, %d in the harness", len(bf.Workloads), len(specs))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not of the form %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: file has %q / %q, harness %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len([]rune(w.Why)) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if specs[i].pool%(specs[i].lanes*4) != 0 {
			t.Errorf("workload %s: pool %d is not a whole number of requests for up to 4 clients", w.Name, specs[i].pool)
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		unique(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d == metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: d.Bound}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for name := range exactCounts {
		if !seen[name] {
			t.Errorf("exactCounts names %q, which is not a metric", name)
		}
	}
	for _, d := range gateDefs {
		if gateSlack[d.Name] == nil {
			t.Errorf("gate %s has no rule", d.Name)
		}
	}
}

// testOptions shrink a run to sub-second segments: a 32nd of the pool,
// one set-up, segments of under a tenth of a second, and percentiles
// without the tail a real measurement demands.
func testOptions(seed uint64, trace bool) options {
	return options{seed: seed, seconds: 0.6, trace: trace, poolScale: 32, setups: 1, tail: 0}
}

// tracedRuns caches one traced test-sized run per workload, seed 1, so
// that the tests below share them.
var tracedRuns sync.Map // workload name -> func() (*result, error)

func tracedRun(t *testing.T, sp *spec) *result {
	t.Helper()
	once, _ := tracedRuns.LoadOrStore(sp.name, sync.OnceValues(func() (*result, error) {
		return runWorkload(context.Background(), sp, testOptions(1, true))
	}))
	res, err := once.(func() (*result, error))()
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	return res
}

// TestEveryWorkloadEmitsExactlyTheDeclaredMetrics runs each workload
// end to end, traced, and checks that the result line carries every
// per-layer name of BENCHMARK.json and nothing else, all finite; that
// the correctness gate passed; and that teardown left no goroutine.
func TestEveryWorkloadEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			res := tracedRun(t, sp)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d problems=%q", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			checkLine(t, resultLine(res, true), tracedDefs())
			checkLine(t, resultLine(res, false), endToEndDefs)
			for _, m := range res.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v; a bounded metric must never read 0", m.Name, m.Value)
				}
			}
			gates := byName(res.Gates)
			if sp.vegapunk && gates["unsatisfied_share"].Value != 0 {
				t.Errorf("unsatisfied_share %v on a Vegapunk workload", gates["unsatisfied_share"].Value)
			}
			if gates["failed_share"].Value != 0 {
				t.Errorf("failed_share %v", gates["failed_share"].Value)
			}
			if sp.path != pathDirect && len(res.Budget) == 0 {
				t.Error("a served workload must print its time budget")
			}
			if err := settleGoroutines(before); err != nil {
				t.Error(err)
			}
		})
	}
}

// checkLine parses a result line and compares its metric names to defs.
func checkLine(t *testing.T, line string, defs []metricDef) {
	t.Helper()
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if len(got) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys(got))
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, d := range defs {
		m, ok := metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s not emitted", d.Name)
		case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s is not a finite number", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s emitted in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
		delete(metrics, d.Name)
	}
	for name := range metrics {
		t.Errorf("undeclared metric %s emitted", name)
	}
}

func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSeedDeterminism: the same seed gives the same pool, the same
// logical error rate and the same exact counts; another seed gives
// another pool.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"wire-vegapunk-bb72", "router-bp-light-bb72"} {
		sp, _ := findSpec(name)
		a := tracedRun(t, sp)
		b, err := runWorkload(context.Background(), sp, testOptions(1, true))
		if err != nil {
			t.Fatal(err)
		}
		if a.PoolHash != b.PoolHash {
			t.Errorf("%s: pool hash %s then %s for one seed", name, a.PoolHash, b.PoolHash)
		}
		ga, gb := byName(a.Gates), byName(b.Gates)
		for _, g := range []string{"logical_error_rate", "unsatisfied_share"} {
			if ga[g].Value != gb[g].Value {
				t.Errorf("%s: %s %v then %v for one seed", name, g, ga[g].Value, gb[g].Value)
			}
		}
		la, lb := byName(a.PerLayer), byName(b.PerLayer)
		for c := range exactCounts {
			if la[c].Value != lb[c].Value {
				t.Errorf("%s: exact count %s %v then %v for one seed", name, c, la[c].Value, lb[c].Value)
			}
		}
		_, model, err := buildModel(sp)
		if err != nil {
			t.Fatal(err)
		}
		if one, two := samplePool(model, 256, 1, sp.index), samplePool(model, 256, 2, sp.index); one.hash == two.hash {
			t.Errorf("%s: seeds 1 and 2 give the same pool %016x", name, one.hash)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := make([]float64, 2000)
	for i := range s {
		s[i] = float64(i)
	}
	if v, beyond, err := percentile(s, 0.99, tailSamples); err != nil || v != 1980 || beyond != 19 {
		t.Errorf("p99 of 0..1999 = %v with %d beyond, err %v; want 1980, 19", v, beyond, err)
	}
	if v, _, err := percentile(s, 0.5, tailSamples); err != nil || v != 1000 {
		t.Errorf("p50 of 0..1999 = %v, err %v", v, err)
	}
	// 1000 samples leave 9 beyond the p99: one short.
	if _, beyond, err := percentile(s[:1000], 0.99, tailSamples); err == nil || beyond != 9 {
		t.Errorf("p99 of 1000 samples: %d beyond, err %v; want 9 and a refusal", beyond, err)
	}
	if _, _, err := percentile(s[:1100], 0.99, tailSamples); err != nil {
		t.Errorf("p99 of 1100 samples refused: %v", err)
	}
	// The median needs no tail, even of three samples.
	if v, _, err := percentile(s[:3], 0.5, tailSamples); err != nil || v != 1 {
		t.Errorf("p50 of 3 samples = %v, err %v", v, err)
	}
	if _, _, err := percentile(nil, 0.5, 0); err == nil {
		t.Error("percentile of nothing must fail")
	}
}

func TestMedianOfRounds(t *testing.T) {
	in := []float64{5, 1, 4, 2, 100}
	if m := median(in); m != 4 {
		t.Errorf("median = %v, want 4: one wild round must not move it", m)
	}
	if !reflect.DeepEqual(in, []float64{5, 1, 4, 2, 100}) {
		t.Error("median reordered its argument; per-round values are reported in run order")
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if s := spreadShare([]float64{90, 100, 110}); math.Abs(s-0.2) > 1e-12 {
		t.Errorf("spreadShare = %v, want 0.2", s)
	}
	m := metricSet{"x": {Value: median(in), Samples: 7, Rounds: in}}
	if got := m.render([]metricDef{{Name: "x", Unit: "us"}, {Name: "bypassed", Unit: "ns"}}); got[0].Value != 4 || got[0].Samples != 7 || got[0].Unit != "us" || got[1].Value != 0 || got[1].Name != "bypassed" {
		t.Errorf("render = %+v", got)
	}
}

// fakeRound is a round whose closed segment finished n requests of one
// lane each in a second, all at latencyUs, and whose paced segment
// missed `missed` of 1000 scheduled.
func fakeRound(n int, latencyUs float64, missed int) round {
	lat := make([]float64, max(n, 1100))
	for i := range lat {
		lat[i] = latencyUs
	}
	return round{
		closed: &segment{tally: tally{requests: n, lanes: n}, wallS: 1, cpuUs: 2e6, mallocs: uint64(n / 2), lat: lat[:n]},
		paced:  &segment{tally: tally{requests: 1100, lanes: 1100, scheduled: 1000, missed: missed}, wallS: 1, lat: lat[:1100], late: lat[:1100]},
	}
}

func TestEndToEndIsTheMedianOfTheRounds(t *testing.T) {
	reduce := func(rounds ...round) metricSet {
		t.Helper()
		rs := &runState{opt: options{tail: tailSamples}, m: metricSet{}, plain: rounds}
		if err := rs.endToEnd(); err != nil {
			t.Fatal(err)
		}
		return rs.m
	}
	good, stalled := fakeRound(2000, 500, 0), fakeRound(1200, 900, 40)
	// One stalled round of five is on record and does not move the median.
	m := reduce(good, good, stalled, good, good)
	for name, want := range map[string]float64{
		"throughput_syn_per_s": 2000, "sat_latency_p50_us": 500, "sat_latency_p99_us": 500,
		"paced_latency_p99_us": 500, "paced_miss_share": 0, "cpu_us_per_syn": 1000, "allocs_per_syn": 0.5,
	} {
		if m[name].Value != want || len(m[name].Rounds) != 5 {
			t.Errorf("%s = %v over rounds %v, want %v", name, m[name].Value, m[name].Rounds, want)
		}
	}
	if got := m["throughput_syn_per_s"]; got.Rounds[2] != 1200 || got.Samples != 1200 {
		t.Errorf("throughput rounds %v, samples %d: the stalled round must be listed, and n is the smallest round's", got.Rounds, got.Samples)
	}
	if got := m["harness.round_spread_share"].Value; got != 0.4 {
		t.Errorf("round spread %v, want (2000-1200)/2000", got)
	}
	// Three stalled rounds of five are the run.
	m = reduce(stalled, good, stalled, good, stalled)
	if m["throughput_syn_per_s"].Value != 1200 || m["sat_latency_p99_us"].Value != 900 || m["paced_miss_share"].Value != 0.04 {
		t.Errorf("three stalled rounds: throughput %v, p99 %v, miss share %v", m["throughput_syn_per_s"].Value, m["sat_latency_p99_us"].Value, m["paced_miss_share"].Value)
	}
	// A round of 1000 requests has 9 samples beyond its p99: it gives the
	// p99 no value, and the run fails when most rounds are like that.
	tooShort := fakeRound(1000, 700, 0)
	m = reduce(good, tooShort, good, good, tooShort)
	if got := m["sat_latency_p99_us"]; len(got.Rounds) != 3 || got.Value != 500 || len(m["sat_latency_p50_us"].Rounds) != 5 {
		t.Errorf("two short rounds of five: p99 %v over rounds %v, p50 over rounds %v", got.Value, got.Rounds, m["sat_latency_p50_us"].Rounds)
	}
	rs := &runState{opt: options{tail: tailSamples}, m: metricSet{}, plain: []round{tooShort, good, tooShort, good, tooShort}}
	if err := rs.endToEnd(); err == nil {
		t.Error("three rounds of five too short for a p99 must fail the run, not guess")
	}
}

func TestPaceFor(t *testing.T) {
	// 1000 requests/s over 2 clients for 10 ms: 10 arrivals, 5 each, the
	// second client half a spacing behind the first.
	a, b := paceFor(1000, 2, 0, 10*time.Millisecond), paceFor(1000, 2, 1, 10*time.Millisecond)
	if a.spacing != 2*time.Millisecond || a.offset != 0 || a.n != 5 {
		t.Errorf("client 0: %+v", a)
	}
	if b.spacing != 2*time.Millisecond || b.offset != time.Millisecond || b.n != 5 {
		t.Errorf("client 1: %+v", b)
	}
	if s := paceFor(1000, 2, 1, time.Millisecond); s.n != 0 {
		t.Errorf("a client whose first arrival falls at the end of the segment has none: %+v", s)
	}
}

// fakeRun drives runSchedule with a virtual clock: service[k] is how
// long request k takes.
func fakeRun(s schedule, end int64, service []int64) (lat, late []int64, unsent int) {
	now := int64(0)
	k := 0
	unsent = runSchedule(s, 0, end,
		func() int64 { return now },
		func(d time.Duration) { now += int64(d) },
		func(start, _ int64) (int64, bool) {
			now = start + service[k]
			k++
			return now, true
		},
		func(l, g int64, _ bool) { lat, late = append(lat, l), append(late, g) })
	return lat, late, unsent
}

func TestScheduleChargesAStallToTheRequestsBehindIt(t *testing.T) {
	s := schedule{spacing: 10, n: 5} // due at 0, 10, 20, 30, 40
	// Request 1 stalls for 25; the rest take 2.
	lat, late, unsent := fakeRun(s, 1000, []int64{2, 25, 2, 2, 2})
	// Request 1 is due at 10 and done at 35. Requests 2 and 3 were due at
	// 20 and 30 but go out at 35 and 37: their latency counts from when
	// they were due, not from when the generator got round to them.
	wantLat := []int64{2, 25, 17, 9, 2}
	wantLate := []int64{0, 0, 15, 7, 0}
	if !reflect.DeepEqual(lat, wantLat) || !reflect.DeepEqual(late, wantLate) || unsent != 0 {
		t.Errorf("latencies %v (want %v), generator lateness %v (want %v), unsent %d", lat, wantLat, late, wantLate, unsent)
	}
}

func TestScheduleCountsUnsentRequestsAsMisses(t *testing.T) {
	s := schedule{spacing: 10, n: 5}
	// The segment ends at 45; request 1 stalls until 60, so requests 2 to
	// 4 are never sent.
	lat, _, unsent := fakeRun(s, 45, []int64{2, 50, 2, 2, 2})
	if len(lat) != 2 || unsent != 3 {
		t.Errorf("%d sent, %d unsent; want 2 and 3", len(lat), unsent)
	}
	// They enter the percentiles with the time they had been due when the
	// client gave up at 60: requests 2, 3 and 4 were due at 20, 30 and 40.
	if got := s.waited(0, 60, unsent); !reflect.DeepEqual(got, []int64{40, 30, 20}) {
		t.Errorf("unsent requests waited %v, want [40 30 20]", got)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(0)
	tr.open(spanRequest, 7, 100)
	tr.call(spanWireFlush, tr.now()) // a child of about no length
	tr.close(1100)
	if tr.count[spanRequest] != 1 || tr.total[spanRequest] != 1000 {
		t.Errorf("request span: count %d total %d", tr.count[spanRequest], tr.total[spanRequest])
	}
	if got := tr.self[spanRequest] + tr.total[spanWireFlush]; got != 1000 {
		t.Errorf("self %d + child %d = %d, want the span's 1000", tr.self[spanRequest], tr.total[spanWireFlush], got)
	}
	if len(tr.spans) != 2 || tr.spans[1].parent != 0 || tr.spans[0].parent != -1 || tr.spans[1].req != 7 {
		t.Errorf("kept spans %+v", tr.spans)
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, "w", []*tracer{tr}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 3 {
		t.Errorf("trace document: %d events, err %v", len(doc.TraceEvents), err)
	}
	// Switched off, it records nothing and reads no clock.
	var off *tracer
	off.open(spanRequest, 1, off.now())
	off.call(spanWireFlush, off.now())
	off.close(5)
	if off.now() != 0 {
		t.Error("a nil tracer must not read the clock")
	}
}

// compareFixture builds a one-workload artifact.
func compareFixture(seed uint64, edit func(e2e, gates, layer map[string]*measured)) *artifact {
	res := &result{Workload: "w", PoolHash: "abc", Correct: true, Attempted: 100}
	index := func(defs []metricDef, list *[]measured, v float64) map[string]*measured {
		out := map[string]*measured{}
		*list = make([]measured, len(defs))
		for i, d := range defs {
			(*list)[i] = measured{Name: d.Name, Unit: d.Unit, Value: v, Samples: 10000}
			out[d.Name] = &(*list)[i]
		}
		return out
	}
	e2e := index(endToEndDefs, &res.EndToEnd, 100)
	gates := index(gateDefs, &res.Gates, 0)
	layer := index(layerDefs, &res.PerLayer, 3)
	gates["logical_error_rate"].Value = 0.01
	for name := range timingGates {
		gates[name].Value = 100
	}
	if edit != nil {
		edit(e2e, gates, layer)
	}
	return &artifact{Seed: seed, Results: []*result{res}}
}

func TestCompare(t *testing.T) {
	bf := &benchFile{EndToEnd: endToEndDefs}
	type edit = func(e2e, gates, layer map[string]*measured)
	for _, tc := range []struct {
		name       string
		seed       uint64
		change     edit
		violations int
	}{
		{"identical", 1, nil, 0},
		{"throughput 9% down is inside 10%", 1, func(_, g, _ map[string]*measured) { g["throughput_syn_per_s"].Value = 91 }, 0},
		{"throughput 11% down", 1, func(_, g, _ map[string]*measured) { g["throughput_syn_per_s"].Value = 89 }, 1},
		{"throughput up is never a violation", 1, func(_, g, _ map[string]*measured) { g["throughput_syn_per_s"].Value = 300 }, 0},
		{"latency 11% up", 1, func(_, g, _ map[string]*measured) { g["sat_latency_p99_us"].Value = 111 }, 1},
		{"latency better is never a violation", 1, func(_, g, _ map[string]*measured) { g["paced_latency_p50_us"].Value = 10 }, 0},
		{"success share 0.1% down is inside 0.2%", 1, func(e, _, _ map[string]*measured) { e["decode_success_share"].Value = 99.9 }, 0},
		{"success share 0.3% down", 1, func(e, _, _ map[string]*measured) { e["decode_success_share"].Value = 99.7 }, 1},
		{"miss share +0.005 is inside +0.01", 1, func(_, g, _ map[string]*measured) { g["paced_miss_share"].Value = 0.005 }, 0},
		{"miss share +0.02", 1, func(_, g, _ map[string]*measured) { g["paced_miss_share"].Value = 0.02 }, 1},
		{"allocs +0.04 is inside the +0.05 floor", 1, func(_, g, _ map[string]*measured) { g["allocs_per_syn"].Value = 0.04 }, 0},
		{"LER inside the parent's Wilson limit", 1, func(_, g, _ map[string]*measured) { g["logical_error_rate"].Value = 0.0115 }, 0},
		{"LER beyond it", 1, func(_, g, _ map[string]*measured) { g["logical_error_rate"].Value = 0.013 }, 1},
		{"any new unsatisfied correction", 1, func(_, g, _ map[string]*measured) { g["unsatisfied_share"].Value = 1e-6 }, 1},
		{"any failed request", 1, func(_, g, _ map[string]*measured) { g["failed_share"].Value = 1e-6 }, 1},
		{"an exact count moved", 1, func(_, _, l map[string]*measured) { l["hier.candidates_mean"].Value = 3.001 }, 1},
		{"a timing row of the ledger may move", 1, func(_, _, l map[string]*measured) { l["hier.scalar_us_p50"].Value = 30 }, 0},
		{"exact counts are not compared across seeds", 2, func(_, _, l map[string]*measured) { l["hier.candidates_mean"].Value = 3.001 }, 0},
	} {
		var out bytes.Buffer
		got := compareArtifacts(bf, compareFixture(1, nil), compareFixture(tc.seed, tc.change), &out)
		if got != tc.violations {
			t.Errorf("%s: %d violations, want %d\n%s", tc.name, got, tc.violations, out.String())
		}
	}

	// A traced artifact is compared on counts and accuracy, not on timings.
	slowAndWrong := compareFixture(1, func(e, g, _ map[string]*measured) {
		e["setup_s"].Value, g["throughput_syn_per_s"].Value, g["failed_share"].Value = 1000, 50, 0.5
	})
	slowAndWrong.Trace = true
	var traced bytes.Buffer
	if n := compareArtifacts(bf, compareFixture(1, nil), slowAndWrong, &traced); n != 1 {
		t.Errorf("traced artifact, slow and with failures: %d violations, want 1 (failed_share)\n%s", n, traced.String())
	}

	// setup_s has an absolute floor: 20 ms -> 60 ms is three times worse
	// and still inside 0.05 s; 1 s -> 1.3 s is not.
	small := func(v float64) edit {
		return func(e, _, _ map[string]*measured) { e["setup_s"].Value = v }
	}
	var out bytes.Buffer
	if n := compareArtifacts(bf, compareFixture(1, small(0.02)), compareFixture(1, small(0.06)), &out); n != 0 {
		t.Errorf("setup_s 0.02 -> 0.06: %d violations\n%s", n, out.String())
	}
	if n := compareArtifacts(bf, compareFixture(1, small(1)), compareFixture(1, small(1.3)), &out); n != 1 {
		t.Errorf("setup_s 1 -> 1.3: %d violations, want 1", n)
	}
	// No shared workload is a failure, not a silent pass.
	other := compareFixture(1, nil)
	other.Results[0].Workload = "elsewhere"
	if n := compareArtifacts(bf, compareFixture(1, nil), other, &out); n == 0 {
		t.Error("artifacts with no workload in common compared clean")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"--compare", "only-one.json"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errOut.String())
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result line", args)
		}
	}
}
