package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"vegapunk/internal/obs"
	"vegapunk/internal/wire"
)

// tracedReplica brings up one replica whose serving tier samples one
// decode in every, plus an httptest debug listener serving its decode
// trace.
func tracedReplica(t *testing.T, every uint64) (addr, traceURL string) {
	t.Helper()
	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: every})
	cfg := replicaConfig()
	cfg.Tracer = tracer
	_, addr = startReplica(t, cfg, nil)
	dbg := httptest.NewServer(obs.DebugMux(tracer))
	t.Cleanup(dbg.Close)
	return addr, dbg.URL
}

// TestClusterTraceMerge is the tentpole acceptance test: a seeded
// two-replica run must produce a merged Chrome trace in which a
// sampled request's router forward span (pid 1) strictly contains the
// replica-side queue/decode/copy-out spans recorded for the same trace
// id on a replica pid, after clock-offset realignment.
func TestClusterTraceMerge(t *testing.T) {
	addrA, traceA := tracedReplica(t, 1)
	addrB, traceB := tracedReplica(t, 1)
	rt, raddr := startRouter(t, Config{
		Replicas:         []string{addrA, addrB},
		TraceURLs:        []string{traceA, traceB},
		TraceSampleEvery: 1,
		ProbeInterval:    time.Hour,
	})

	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 24, 97)
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

	// Client traffic without trace ids: the router issues one per
	// request (sample-every-1), so every forward is spanned. Mix
	// one-shot and pipelined decodes to cover both replica batch paths.
	for i := 0; i < 8; i++ {
		if _, err := c.Decode(info.ID, uint64(i+1), syndromes[i], &res); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if res.Status != wire.StatusOK {
			t.Fatalf("decode %d: status %s", i, res.Status)
		}
	}
	for i := 8; i < 24; i++ {
		c.QueueDecode(info.ID, uint64(i+1), syndromes[i])
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 24; i++ {
		if _, err := c.ReadResult(&res); err != nil {
			t.Fatalf("pipelined result %d: %v", i, err)
		}
		if res.Status != wire.StatusOK {
			t.Fatalf("pipelined result %d: status %s", i, res.Status)
		}
	}

	// Every response carries the replica's timing, so the wire-derived
	// clock offset must be known for the replica that served the key.
	winner := rt.pick(hash64(testKey), nil)
	if !winner.offsetKnown.Load() {
		t.Fatal("no clock offset estimated from timed responses")
	}
	if winner.netSeconds.Count() == 0 || winner.serverSeconds.Count() == 0 {
		t.Fatal("network/server split histograms never observed a timed response")
	}

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/clustertrace?n=4096", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/clustertrace: status %d: %s", rec.Code, rec.Body.String())
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid trace_event JSON: %v", err)
	}

	// Spans from at least two processes: the router (pid 1) and a
	// replica (pid >= 2).
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.PID] = true
		}
	}
	if !pids[1] {
		t.Fatal("merged trace has no router spans (pid 1)")
	}
	if !pids[2] && !pids[3] {
		t.Fatalf("merged trace has no replica spans (pids seen: %v)", pids)
	}

	// Index replica spans by trace id and name.
	type span struct{ start, end float64 }
	replicaSpans := map[uint32]map[string]span{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID < 2 || ev.Args.ID == 0 {
			continue
		}
		m := replicaSpans[ev.Args.ID]
		if m == nil {
			m = map[string]span{}
			replicaSpans[ev.Args.ID] = m
		}
		m[ev.Name] = span{ev.TS, ev.TS + ev.Dur}
	}

	// Find a router forward span whose trace id also has replica-side
	// queue/decode/copy-out spans, and assert strict containment.
	contained := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 || ev.Name != "router_forward" {
			continue
		}
		m := replicaSpans[ev.Args.ID]
		if m == nil {
			continue
		}
		rs, re := ev.TS, ev.TS+ev.Dur
		full := true
		for _, name := range []string{"queue_wait", "decode", "copy_out"} {
			sp, ok := m[name]
			if !ok {
				full = false
				continue
			}
			if !(sp.start > rs && sp.end < re) {
				t.Errorf("trace %d: replica %s span [%.3f, %.3f]µs escapes router forward span [%.3f, %.3f]µs",
					ev.Args.ID, name, sp.start, sp.end, rs, re)
			}
		}
		if full {
			contained++
		}
	}
	if contained == 0 {
		t.Fatal("no router forward span had matching replica queue/decode/copy-out spans under the same trace id")
	}
}

// TestClusterTraceClientPropagated: a client-supplied trace context
// must ride through the router unchanged — the replica records spans
// under the client's trace id, the router forward span carries the
// same id, and the response reaches the client with its timing
// intact.
func TestClusterTraceClientPropagated(t *testing.T) {
	addrA, traceA := tracedReplica(t, 1)
	addrB, traceB := tracedReplica(t, 1)
	rt, raddr := startRouter(t, Config{
		Replicas:         []string{addrA, addrB},
		TraceURLs:        []string{traceA, traceB},
		TraceSampleEvery: 1,
		ProbeInterval:    time.Hour,
	})

	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 8, 53)
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

	const traceBase = uint64(0xA11CE000)
	var tm wire.ServerTiming
	timed := 0
	for i := 0; i < 8; i++ {
		c.QueueDecodeTraced(info.ID, uint64(i+1), syndromes[i],
			wire.TraceContext{TraceID: traceBase + uint64(i), Sampled: true})
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		_, ok, err := c.ReadResultTimed(&res, &tm)
		if err != nil {
			t.Fatalf("traced decode %d: %v", i, err)
		}
		if res.Status != wire.StatusOK {
			t.Fatalf("traced decode %d: status %s", i, res.Status)
		}
		if ok {
			timed++
			if tm.DecodeNs <= 0 {
				t.Errorf("traced decode %d: non-positive decode time %d", i, tm.DecodeNs)
			}
		}
	}
	if timed != 8 {
		t.Fatalf("only %d/8 traced responses carried their timing through the router", timed)
	}

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/clustertrace?n=4096", nil))
	var doc obs.TraceDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	routerHasID := false
	replicaHasID := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Args.ID != uint32(traceBase) {
			continue
		}
		if ev.PID == 1 && ev.Name == "router_forward" {
			routerHasID = true
		}
		if ev.PID >= 2 {
			replicaHasID = true
		}
	}
	if !routerHasID {
		t.Error("router never recorded a forward span under the client's trace id")
	}
	if !replicaHasID {
		t.Error("replica never recorded spans under the client's trace id")
	}
}

// TestClusterTraceZeroClientID: a client that asks for sampling but
// sends no trace id (TraceID 0, Sampled) gets a router-issued id, and
// the router forward span and the replica's spans join under it. The
// router and the replicas sample on a lattice no id here reaches, so
// every span comes from the client's sampled bit alone.
func TestClusterTraceZeroClientID(t *testing.T) {
	const sparse = 1 << 30
	addrA, traceA := tracedReplica(t, sparse)
	addrB, traceB := tracedReplica(t, sparse)
	rt, raddr := startRouter(t, Config{
		Replicas:         []string{addrA, addrB},
		TraceURLs:        []string{traceA, traceB},
		TraceSampleEvery: sparse,
		ProbeInterval:    time.Hour,
	})

	model, _ := clusterModel(t)
	const n = 8
	syndromes := sampleSyndromes(model, n, 59)
	c, err := wire.Dial(raddr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Hello(testKey)
	if err != nil {
		t.Fatal(err)
	}
	var (
		res wire.Result
		tm  wire.ServerTiming
	)
	wire.SizeResult(&res, info.NumMech, info.NumObs)
	for i := 0; i < n; i++ {
		c.QueueDecodeTraced(info.ID, uint64(i+1), syndromes[i], wire.TraceContext{Sampled: true})
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := c.ReadResultTimed(&res, &tm); err != nil || res.Status != wire.StatusOK {
			t.Fatalf("decode %d: status %s, %v", i, res.Status, err)
		}
	}

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/clustertrace?n=4096", nil))
	var doc obs.TraceDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	replica := map[uint32]map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.PID >= 2 {
			if replica[ev.Args.ID] == nil {
				replica[ev.Args.ID] = map[string]bool{}
			}
			replica[ev.Args.ID][ev.Name] = true
		}
	}
	forwards := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 || ev.Name != "router_forward" {
			continue
		}
		forwards++
		if ev.Args.ID == 0 {
			t.Error("sampled router forward span recorded under trace id 0")
			continue
		}
		for _, name := range []string{"queue_wait", "decode", "copy_out"} {
			if !replica[ev.Args.ID][name] {
				t.Errorf("trace %d: router forward span has no replica %s span under its id", ev.Args.ID, name)
			}
		}
	}
	if forwards != n {
		t.Fatalf("%d router forward spans for %d sampled requests", forwards, n)
	}
}

// TestClusterTraceSkipsUnalignedReplica: a replica the router has
// relayed no timed result from has no clock offset to align its spans
// by, so the merged trace names it as a gap, carries none of its events
// and never requests its trace URL. Once a timed result has been
// relayed, the replica is fetched and merged.
func TestClusterTraceSkipsUnalignedReplica(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	cfg := replicaConfig()
	cfg.Tracer = tracer
	_, addr := startReplica(t, cfg, nil)
	var fetches atomic.Int64
	mux := obs.DebugMux(tracer)
	dbg := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(dbg.Close)
	rt, raddr := startRouter(t, Config{
		Replicas:         []string{addr},
		TraceURLs:        []string{dbg.URL},
		TraceSampleEvery: 1,
		ProbeInterval:    time.Hour,
	})

	// merged fetches the merged trace and returns the replica's process
	// name and its span count.
	merged := func() (name string, spans int) {
		t.Helper()
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/clustertrace", nil))
		var doc obs.TraceDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("merged trace: %v", err)
		}
		for _, ev := range doc.TraceEvents {
			switch {
			case ev.PID != 2:
			case ev.Ph == "M":
				name = ev.Args.Label
			default:
				spans++
			}
		}
		return name, spans
	}

	name, spans := merged()
	if want := "replica " + addr + " (clock offset unknown)"; name != want {
		t.Errorf("replica with no relayed result named %q, want %q", name, want)
	}
	if spans != 0 || fetches.Load() != 0 {
		t.Errorf("replica with no relayed result: %d spans merged, %d trace fetches; want 0 and 0", spans, fetches.Load())
	}

	model, _ := clusterModel(t)
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
	if _, err := c.Decode(info.ID, 1, sampleSyndromes(model, 1, 61)[0], &res); err != nil || res.Status != wire.StatusOK {
		t.Fatalf("decode: status %s, %v", res.Status, err)
	}

	name, spans = merged()
	if want := "replica " + addr; name != want {
		t.Errorf("aligned replica named %q, want %q", name, want)
	}
	if spans == 0 || fetches.Load() != 1 {
		t.Errorf("aligned replica: %d spans merged, %d trace fetches; want some and 1", spans, fetches.Load())
	}
}
