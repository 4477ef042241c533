package serve

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/gf2"
	"vegapunk/internal/wire"
)

// startWireServer brings up a Server with the test model on a loopback
// wire listener and returns the server, its address and the model key.
func startWireServer(t testing.TB, cfg Config) (*Server, string, string) {
	t.Helper()
	model, factory := testModel(t)
	srv := NewServer(cfg)
	const key = "wiretest/bp/p0.010"
	if _, err := srv.Register(key, model, "BP(30)", factory); err != nil {
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
	return srv, l.Addr().String(), key
}

func wireTestConfig() Config {
	return Config{
		MaxBatch: 8, MaxWait: 50 * time.Microsecond,
		PoolSize: 2,
	}
}

// TestWireDecodeMatchesSerial is the wire-path correctness keystone:
// corrections served over the binary protocol must be bit-identical to
// a serial decoder run on the same syndromes.
func TestWireDecodeMatchesSerial(t *testing.T) {
	srv, addr, key := startWireServer(t, wireTestConfig())
	model, factory := testModel(t)
	const nSyn = 64
	syndromes := sampleSyndromes(model, nSyn, 11)
	ref := factory()
	want := make([]gf2.Vec, nSyn)
	for i, s := range syndromes {
		est, _ := ref.Decode(s)
		want[i] = est.Clone()
	}

	c, err := wire.Dial(addr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Hello(key)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumDet != model.NumDet || info.NumMech != model.NumMech() || info.NumObs != model.NumObs {
		t.Fatalf("hello dims: got %+v", info)
	}

	var res wire.Result
	wire.SizeResult(&res, info.NumMech, info.NumObs)
	for i, syn := range syndromes {
		flags, err := c.Decode(info.ID, uint64(i+1), syn, &res)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if res.Status != wire.StatusOK {
			t.Fatalf("decode %d: status %s", i, res.Status)
		}
		if flags&wire.FlagDraining != 0 {
			t.Fatalf("decode %d: unexpected draining flag", i)
		}
		if !res.Correction.Equal(want[i]) {
			t.Fatalf("decode %d: correction differs from serial reference", i)
		}
		if res.DecodeNs < 0 || res.QueueWaitNs < 0 {
			t.Fatalf("decode %d: negative latency fields %+v", i, res)
		}
	}
	if got := srv.wireDecodes.Load(); got != nSyn {
		t.Fatalf("wireDecodes = %d, want %d", got, nSyn)
	}
}

// TestWirePipelined queues a full batch of requests before flushing:
// all must come back in order, each with exactly one terminal outcome.
func TestWirePipelined(t *testing.T) {
	_, addr, key := startWireServer(t, wireTestConfig())
	model, _ := testModel(t)
	const depth = 24
	syndromes := sampleSyndromes(model, depth, 5)

	c, err := wire.Dial(addr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Hello(key)
	if err != nil {
		t.Fatal(err)
	}
	for i, syn := range syndromes {
		c.QueueDecode(info.ID, uint64(100+i), syn)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var res wire.Result
	wire.SizeResult(&res, info.NumMech, info.NumObs)
	for i := range syndromes {
		h, err := c.ReadResult(&res)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if h.ReqID != uint64(100+i) {
			t.Fatalf("result %d: req id %d, want %d (responses must preserve arrival order)", i, h.ReqID, 100+i)
		}
		if res.Status != wire.StatusOK {
			t.Fatalf("result %d: status %s", i, res.Status)
		}
	}
}

// TestWireHelloUnknownModel: a bad key answers with StatusUnknownModel
// and the connection stays usable for a subsequent good Hello.
func TestWireHelloUnknownModel(t *testing.T) {
	_, addr, key := startWireServer(t, wireTestConfig())
	c, err := wire.Dial(addr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello("no/such/model"); err == nil {
		t.Fatal("Hello on unknown key: want error")
	} else if !strings.Contains(err.Error(), wire.StatusUnknownModel.String()) {
		t.Fatalf("Hello on unknown key: %v", err)
	}
	if _, err := c.Hello(key); err != nil {
		t.Fatalf("Hello after rejected key: %v", err)
	}
}

// TestWireBadSyndromeDim: a decode frame whose payload does not match
// the model's detector count answers StatusBadRequest without killing
// the connection.
func TestWireBadSyndromeDim(t *testing.T) {
	_, addr, key := startWireServer(t, wireTestConfig())
	model, _ := testModel(t)

	c, err := wire.Dial(addr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Hello(key)
	if err != nil {
		t.Fatal(err)
	}
	var res wire.Result
	wire.SizeResult(&res, info.NumMech, info.NumObs)
	bad := gf2.NewVec(info.NumDet + 64) // one word too many
	if _, err := c.Decode(info.ID, 1, bad, &res); err != nil {
		t.Fatalf("transport error on bad dim: %v", err)
	}
	if res.Status != wire.StatusBadRequest {
		t.Fatalf("bad dim status = %s, want %s", res.Status, wire.StatusBadRequest)
	}
	// The connection must survive the request-level error.
	good := sampleSyndromes(model, 1, 3)[0]
	if _, err := c.Decode(info.ID, 2, good, &res); err != nil {
		t.Fatalf("decode after bad dim: %v", err)
	}
	if res.Status != wire.StatusOK || res.DecodeNs <= 0 || res.ServerTick <= 0 {
		t.Fatalf("decode after bad dim: status %s, timing %+v", res.Status, res.ServerTiming)
	}
	// A failed lane answers zero stats, not the previous lane's.
	if _, err := c.Decode(info.ID, 3, bad, &res); err != nil {
		t.Fatalf("transport error on bad dim: %v", err)
	}
	if res.Status != wire.StatusBadRequest || res.Satisfied || res.BPIters != 0 ||
		res.QueueWaitNs != 0 || res.BatchAssembleNs != 0 || res.DecodeNs != 0 || res.CopyOutNs != 0 {
		t.Fatalf("failed lane answered %+v", res)
	}
}

// TestWireUnknownModelID: decoding against an unresolved model id is a
// request-level error carrying StatusUnknownModel.
func TestWireUnknownModelID(t *testing.T) {
	_, addr, key := startWireServer(t, wireTestConfig())
	c, err := wire.Dial(addr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Hello(key)
	if err != nil {
		t.Fatal(err)
	}
	var res wire.Result
	wire.SizeResult(&res, info.NumMech, info.NumObs)
	syn := gf2.NewVec(info.NumDet)
	if _, err := c.Decode(info.ID+7, 1, syn, &res); err != nil {
		t.Fatalf("transport error: %v", err)
	}
	if res.Status != wire.StatusUnknownModel {
		t.Fatalf("status = %s, want %s", res.Status, wire.StatusUnknownModel)
	}
}

// TestWireDrainFlag: SetWireDraining flips the health bit on pongs and
// decode responses without dropping connections; clearing it recovers.
func TestWireDrainFlag(t *testing.T) {
	srv, addr, key := startWireServer(t, wireTestConfig())
	model, _ := testModel(t)
	c, err := wire.Dial(addr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Hello(key)
	if err != nil {
		t.Fatal(err)
	}
	if flags, err := c.Ping(); err != nil || flags&wire.FlagDraining != 0 {
		t.Fatalf("ping before drain: flags=%v err=%v", flags, err)
	}

	srv.SetWireDraining(true)
	if flags, err := c.Ping(); err != nil || flags&wire.FlagDraining == 0 {
		t.Fatalf("ping during drain: flags=%v err=%v", flags, err)
	}
	// The existing connection keeps serving decodes, flagged.
	var res wire.Result
	wire.SizeResult(&res, info.NumMech, info.NumObs)
	syn := sampleSyndromes(model, 1, 9)[0]
	flags, err := c.Decode(info.ID, 1, syn, &res)
	if err != nil || res.Status != wire.StatusOK {
		t.Fatalf("decode during drain: flags=%v status=%s err=%v", flags, res.Status, err)
	}
	if flags&wire.FlagDraining == 0 {
		t.Fatal("decode during drain: response must carry FlagDraining")
	}

	srv.SetWireDraining(false)
	if flags, err := c.Ping(); err != nil || flags&wire.FlagDraining != 0 {
		t.Fatalf("ping after rejoin: flags=%v err=%v", flags, err)
	}
}

// TestWireShutdownUnblocksIdle: Shutdown must interrupt a connection
// parked in a blocking read and return promptly.
func TestWireShutdownUnblocksIdle(t *testing.T) {
	model, factory := testModel(t)
	srv := NewServer(wireTestConfig())
	if _, err := srv.Register("shut/bp/p0.010", model, "BP(30)", factory); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.ServeWire(l) }()

	c, err := wire.Dial(l.Addr().String(), time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello("shut/bp/p0.010"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Shutdown took %v; idle wire conn did not unblock", elapsed)
	}
	if _, err := c.Ping(); err == nil {
		t.Fatal("ping after shutdown: want error")
	}
}

// TestWireGracefulDrain: Shutdown waits for a wire decode already inside
// the decoder, answers it (StatusOK, flagged draining) and only then
// returns; the drained listener accepts no new connection.
func TestWireGracefulDrain(t *testing.T) {
	model, _ := testModel(t)
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv := NewServer(Config{MaxBatch: 1, PoolSize: 1})
	if _, err := srv.Register("gated", model, "gated",
		func() core.Decoder { return &gatedDecoder{model: model, gate: gate, entered: entered} }); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeWire(l) }()
	addr := l.Addr().String()

	c, err := wire.Dial(addr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Hello("gated")
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		flags  wire.Flags
		status wire.Status
		err    error
	}
	answered := make(chan answer, 1)
	go func() {
		var res wire.Result
		wire.SizeResult(&res, info.NumMech, info.NumObs)
		flags, err := c.Decode(info.ID, 1, gf2.NewVec(model.NumDet), &res)
		answered <- answer{flags, res.Status, err}
	}()
	<-entered

	// Shutdown must wait for the in-flight decode, not drop it.
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	for !srv.wire.Draining() {
		runtime.Gosched()
	}
	close(gate)

	a := <-answered
	if a.err != nil || a.status != wire.StatusOK {
		t.Fatalf("in-flight decode: status %s, err %v; want %s", a.status, a.err, wire.StatusOK)
	}
	if a.flags&wire.FlagDraining == 0 {
		t.Fatal("in-flight decode answered during drain without FlagDraining")
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	if c2, err := wire.Dial(addr, time.Second, time.Second); err == nil {
		c2.Close()
		t.Fatal("dial after shutdown succeeded")
	}
}

// BenchmarkServeWireDecode measures the full binary round trip against
// a live service over loopback TCP, one request in flight; the
// sustained, verified figure for this path is the wire-vegapunk-bb72
// workload of `go run ./benchmark`. TestServeWireDecodeAllocatesNothing
// holds it at 0 allocs/op.
func BenchmarkServeWireDecode(b *testing.B) {
	roundTrip := wireRoundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// TestServeWireDecodeAllocatesNothing pins the untraced binary round
// trip at zero allocations in steady state, counted process-wide: the
// client's encode and parse, and the server's read, dispatch, decode and
// answer.
func TestServeWireDecodeAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, wireRoundTrip(t)); n != 0 {
		t.Errorf("a wire round trip allocates %v times", n)
	}
}

// wireRoundTrip returns one untraced decode round trip, cycling through
// 64 syndromes, on a warm connection to a live wire server.
func wireRoundTrip(tb testing.TB) func() {
	_, addr, key := startWireServer(tb, wireTestConfig())
	model, _ := testModel(tb)
	syndromes := sampleSyndromes(model, 64, 17)

	c, err := wire.Dial(addr, time.Second, 10*time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	info, err := c.Hello(key)
	if err != nil {
		tb.Fatal(err)
	}
	var res wire.Result
	wire.SizeResult(&res, info.NumMech, info.NumObs)
	n := 0
	roundTrip := func() {
		n++
		if _, err := c.Decode(info.ID, uint64(n), syndromes[n%len(syndromes)], &res); err != nil {
			tb.Fatal(err)
		}
		if res.Status != wire.StatusOK {
			tb.Fatalf("status %s", res.Status)
		}
	}
	// Grow the connection's buffers and the service's freelists.
	for range syndromes {
		roundTrip()
	}
	return roundTrip
}

// TestErrClassesCoverSentinels reads the package source: every exported
// Err* variable must be the sentinel of an errClasses row, so a new
// terminal error cannot ship without a wire status.
func TestErrClassesCoverSentinels(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var sentinels []string
	rows := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, sp := range gd.Specs {
				vs := sp.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if strings.HasPrefix(id.Name, "Err") {
						sentinels = append(sentinels, id.Name)
					}
					if id.Name != "errClasses" {
						continue
					}
					for _, row := range vs.Values[i].(*ast.CompositeLit).Elts {
						if sentinel, ok := row.(*ast.CompositeLit).Elts[0].(*ast.Ident); ok {
							rows[sentinel.Name] = true
						}
					}
				}
			}
		}
	}
	if len(sentinels) == 0 || len(rows) == 0 {
		t.Fatalf("found %d sentinels and %d table rows; the source scan is broken", len(sentinels), len(rows))
	}
	for _, name := range sentinels {
		if !rows[name] {
			t.Errorf("%s has no row in errClasses", name)
		}
	}
}
