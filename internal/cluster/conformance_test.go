package cluster

import (
	"context"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"vegapunk/internal/wire"
)

// reply is what a client observes of one response frame, health flags
// aside: those are the only thing the two tiers may differ in.
type reply struct {
	Op     wire.Op
	Status wire.Status // OpResult and OpError only
	ReqID  uint64
}

// runScript writes script to addr in one write, half-closes, and
// returns every response frame up to the server's close.
func runScript(t *testing.T, addr string, script []byte) []reply {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(script); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	var out []reply
	r := wire.NewReader(conn)
	for {
		h, payload, err := r.ReadFrame()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("%s: after %d frames: %v", addr, len(out), err)
		}
		rp := reply{Op: h.Op, ReqID: h.ReqID}
		if h.Op == wire.OpResult || h.Op == wire.OpError {
			if rp.Status, err = wire.PeekStatus(payload); err != nil {
				t.Fatalf("%s: frame %d: %v", addr, len(out), err)
			}
		}
		out = append(out, rp)
	}
}

// TestWireConformance runs one frame script per protocol corner against
// a replica directly and against a router in front of two replicas:
// both serve through wire.Server, so a client must see the same
// op/status/request-id sequence from either.
func TestWireConformance(t *testing.T) {
	model, _ := clusterModel(t)
	syn := sampleSyndromes(model, 1, 5)[0]
	_, a1 := startReplica(t, replicaConfig(), nil)
	_, a2 := startReplica(t, replicaConfig(), nil)
	_, raddr := startRouter(t, Config{Replicas: []string{a1, a2}, ProbeInterval: time.Hour})

	// A script is the bytes a client sends and the replies it must see.
	type script struct {
		name  string
		bytes []byte
		want  []reply
	}
	hello := func(s *script, reqID uint64, key string, status wire.Status) {
		s.bytes = wire.AppendHello(s.bytes, reqID, key)
		if status == wire.StatusOK {
			s.want = append(s.want, reply{wire.OpHelloAck, 0, reqID})
		} else {
			s.want = append(s.want, reply{wire.OpError, status, reqID})
		}
	}
	decodes := func(s *script, id uint16, first uint64, n int) {
		for i := 0; i < n; i++ {
			s.bytes = wire.AppendDecode(s.bytes, id, first+uint64(i), syn)
			s.want = append(s.want, reply{wire.OpResult, wire.StatusOK, first + uint64(i)})
		}
	}
	ping := func(s *script, reqID uint64) {
		s.bytes = wire.AppendPing(s.bytes, reqID)
		s.want = append(s.want, reply{wire.OpPong, 0, reqID})
	}
	var cases []*script
	begin := func(name string) *script {
		s := &script{name: name}
		cases = append(cases, s)
		return s
	}

	s := begin("unknown hello key")
	hello(s, 1, "no/such/model", wire.StatusUnknownModel)
	ping(s, 2)

	s = begin("ping")
	ping(s, 7)

	s = begin("unexpected opcode closes")
	s.bytes = wire.AppendFrame(nil, wire.OpResult, 0, 0, 3, nil)
	s.want = []reply{{wire.OpError, wire.StatusBadRequest, 3}}

	s = begin("oversize frame closes")
	s.bytes = wire.AppendPing(nil, 5)
	copy(s.bytes[16:20], []byte{0xff, 0xff, 0xff, 0x7f}) // payload length far past MaxPayload
	s.want = []reply{{wire.OpError, wire.StatusBadRequest, 0}}

	s = begin("unresolved model id")
	hello(s, 1, testKey, wire.StatusOK)
	s.bytes = wire.AppendDecode(s.bytes, 7, 2, syn)
	s.want = append(s.want, reply{wire.OpError, wire.StatusUnknownModel, 2})
	ping(s, 3)

	s = begin("65-frame pipelined run")
	hello(s, 1, testKey, wire.StatusOK)
	decodes(s, 0, 100, 65)

	s = begin("run interrupted by another model id")
	hello(s, 1, testKey, wire.StatusOK)
	hello(s, 2, testKey, wire.StatusOK)
	decodes(s, 0, 10, 2)
	decodes(s, 1, 12, 1)
	decodes(s, 0, 13, 1)

	s = begin("torn frame mid-run")
	hello(s, 1, testKey, wire.StatusOK)
	decodes(s, 0, 1, 3)
	torn := wire.AppendDecode(nil, 0, 4, syn)
	s.bytes = append(s.bytes, torn[:len(torn)-5]...)

	s = begin("bad syndrome length")
	hello(s, 1, testKey, wire.StatusOK)
	s.bytes = wire.AppendDecode(s.bytes, 0, 2, syn.Slice(0, 8))
	s.want = append(s.want, reply{wire.OpResult, wire.StatusBadRequest, 2})
	ping(s, 3)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := runScript(t, a1, c.bytes)
			rtr := runScript(t, raddr, c.bytes)
			if !reflect.DeepEqual(rep, c.want) {
				t.Errorf("replica: %+v\nwant     %+v", rep, c.want)
			}
			if !reflect.DeepEqual(rtr, c.want) {
				t.Errorf("router:  %+v\nwant     %+v", rtr, c.want)
			}
		})
	}
}

// TestRouterAdmissionControl lowers the in-flight lane bound so that
// every batch is over the limit: each lane must be answered with a
// terminal overload, counted, and leave no occupancy behind.
func TestRouterAdmissionControl(t *testing.T) {
	model, _ := clusterModel(t)
	syndromes := sampleSyndromes(model, 8, 3)
	_, a1 := startReplica(t, replicaConfig(), nil)
	rt, err := New(Config{Replicas: []string{a1}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rt.maxInflightLanes = 0 // before Serve starts any connection goroutine
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = rt.Serve(l)
	}()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
		<-served
	}()

	c, err := wire.Dial(l.Addr().String(), time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Hello(testKey)
	if err != nil {
		t.Fatal(err)
	}
	for i, syn := range syndromes {
		c.QueueDecode(info.ID, uint64(i+1), syn)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range syndromes {
		h, payload, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
		status, msg, err := wire.ParseError(payload)
		if h.Op != wire.OpError || err != nil || h.ReqID != uint64(i+1) ||
			status != wire.StatusOverload || msg != "router at capacity" {
			t.Fatalf("lane %d: op %s req %d status %s %q (%v)", i, h.Op, h.ReqID, status, msg, err)
		}
	}
	if got := rt.admissionRejected.Load(); got != uint64(len(syndromes)) {
		t.Errorf("admission_rejected_total = %d, want %d", got, len(syndromes))
	}
	if got := rt.inflightLanes.Load(); got != 0 {
		t.Errorf("inflightLanes = %d after the batch, want 0", got)
	}
	if got := rt.replicas[0].decodes.Load(); got != 0 {
		t.Errorf("%d lanes reached the replica past a closed admission gate", got)
	}
}
