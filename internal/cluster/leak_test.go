package cluster

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"vegapunk/internal/wire"
)

// waitGoroutinesBack polls until the goroutine count returns to the
// baseline, failing with a full stack dump if it never does — the
// leak check for the router's probe loop, redial attempts and
// connection handlers.
func waitGoroutinesBack(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: %d > baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
}

// TestRouterShutdownMidProbeNoLeak shuts the router down while its
// probe machinery is maximally busy — a 1ms probe interval against one
// live replica plus one permanently dead address that keeps the
// backoff-gated redial path in flight — and requires the process
// goroutine count to return to its pre-router baseline.
func TestRouterShutdownMidProbeNoLeak(t *testing.T) {
	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 4, 11)
	// One worker and one pool slot make the replica's lazily started
	// goroutines deterministic: a single warm decode brings them all up
	// before the baseline is recorded.
	cfg := replicaConfig()
	cfg.PoolSize = 1
	_, raddr := startReplica(t, cfg, nil)

	warm, err := wire.Dial(raddr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	warmInfo, err := warm.Hello(testKey)
	if err != nil {
		t.Fatal(err)
	}
	var warmRes wire.Result
	wire.SizeResult(&warmRes, warmInfo.NumMech, warmInfo.NumObs)
	if _, err := warm.Decode(warmInfo.ID, 1, syndromes[0], &warmRes); err != nil {
		t.Fatal(err)
	}

	// An address that accepts nothing: listen, record, close.
	deadL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := deadL.Addr().String()
	_ = deadL.Close()

	// The warm connection stays open until the test ends, so its
	// replica-side handler is counted in the baseline and still alive
	// during the final check — it cannot mask a router leak.
	base := runtime.NumGoroutine()
	defer warm.Close()

	rt, err := New(Config{
		Replicas:      []string{raddr, dead},
		ProbeInterval: time.Millisecond,
		PoolSize:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = rt.Serve(l)
	}()

	// Drive a real decode through the router so a client connection
	// handler (and its replica-side counterpart) is alive at shutdown.
	c, err := wire.Dial(l.Addr().String(), time.Second, 5*time.Second)
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
	if _, err := c.Decode(info.ID, 1, syndromes[0], &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != wire.StatusOK {
		t.Fatalf("decode status %s", res.Status)
	}

	// Let several probe rounds fire so shutdown races a live probe.
	time.Sleep(10 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("router shutdown: %v", err)
	}
	<-served
	_ = c.Close()

	waitGoroutinesBack(t, base)
}
