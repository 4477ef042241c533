package cluster

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"vegapunk/internal/obs"
	"vegapunk/internal/wire"
)

// tracedReplica brings up one replica whose serving tier samples every
// decode, plus an httptest debug listener serving its decode trace.
func tracedReplica(t *testing.T) (addr, traceURL string) {
	t.Helper()
	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
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
	addrA, traceA := tracedReplica(t)
	addrB, traceB := tracedReplica(t)
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

	// Untraced client traffic: the router originates a trace id per
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

	// The responses carried timing blocks, so the wire-derived clock
	// offset must be known for the replica that served the key.
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

	// The trace blocks were router-originated: none of the client-side
	// responses should have leaked a telemetry flag or timing block —
	// res was parsed by plain ReadResult above, which rejects trailing
	// bytes, so reaching here already proves the strip.
}

// TestClusterTraceClientPropagated: a client-supplied trace context
// must ride through the router unchanged — the replica records spans
// under the client's trace id, the router forward span carries the
// same id, and the timed response reaches the client with its timing
// block intact.
func TestClusterTraceClientPropagated(t *testing.T) {
	addrA, traceA := tracedReplica(t)
	addrB, traceB := tracedReplica(t)
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
		t.Fatalf("only %d/8 traced responses carried a timing block through the router", timed)
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
