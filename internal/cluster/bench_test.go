package cluster

import (
	"context"
	"testing"
	"time"

	"vegapunk/internal/wire"
)

// BenchmarkRouterPick pins the rendezvous shard selector at 0
// allocs/op (cmd/allocgate): it runs once per forwarded batch and per
// retry, on the router's hot path.
func BenchmarkRouterPick(b *testing.B) {
	rt, err := New(Config{
		Replicas: []string{
			"10.0.0.1:9000", "10.0.0.2:9000", "10.0.0.3:9000", "10.0.0.4:9000",
			"10.0.0.5:9000", "10.0.0.6:9000", "10.0.0.7:9000", "10.0.0.8:9000",
		},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()
	kh := hash64("bench/model/key")
	b.ReportAllocs()
	b.ResetTimer()
	var sink *replica
	for i := 0; i < b.N; i++ {
		sink = rt.pick(kh^uint64(i), nil)
	}
	_ = sink
}

// TestRouterRelayAllocatesNothing pins the relay at 0 allocations per
// request in steady state. One decode through the router covers the
// client's encode and parse, the router's gather, forward, retry
// accounting and answer, and the replica's serve path, once the
// connection's lane scratch has grown.
func TestRouterRelayAllocatesNothing(t *testing.T) {
	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 64, 5)
	_, addr := startReplica(t, replicaConfig(), nil)
	_, raddr := startRouter(t, Config{Replicas: []string{addr}, ProbeInterval: time.Hour})
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
	n := 0
	relay := func() {
		syn := syndromes[n%len(syndromes)]
		n++
		if _, err := c.Decode(info.ID, uint64(n), syn, &res); err != nil || res.Status != wire.StatusOK {
			t.Fatalf("decode %d: err=%v status=%s", n, err, res.Status)
		}
	}
	for range syndromes {
		relay()
	}
	if allocs := testing.AllocsPerRun(100, relay); allocs != 0 {
		t.Errorf("a relayed decode allocates %v times", allocs)
	}
}
