// Package cluster is the sharded serving tier: a front-end router that
// speaks the binary wire protocol (internal/wire) to clients and fans
// requests out across replica vegapunkd processes. Model keys shard by
// rendezvous (highest-random-weight) hashing, replica health is tracked
// passively from response flags and actively by ping probes, and
// overload, decoder-fault and transport outcomes retry once on the
// next-best sibling so one slow or dying replica does not surface to
// clients. A replica that keeps faulting is routed around for a
// suspension that doubles with each consecutive faulting forward.
// Optional hedged dispatch re-sends a slow batch to the sibling after
// Config.HedgeAfter (loser cancellation, rate-capped), and a bad
// backend frame ends only its connection — the replica keeps routing.
// Each client connection forwards its own run over its own backend
// connections, so a stalled replica holds only the lanes keyed to it
// and no other key's lanes wait behind them. The tier holds its
// exactly-one-terminal-outcome invariant and p99 bound under
// partitions, corruption, torn writes and mid-stream resets
// (internal/fault drives these in the network-chaos suite). The admin
// /metrics page renders two obs.Family tables, router-wide and per
// replica (metrics.go).
package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vegapunk/internal/obs"
	"vegapunk/internal/wire"
)

// Config parameterises a Router. The redial backoff (redialBackoff)
// and the hedge rate cap (hedgeMaxRate) are constants, not fields.
type Config struct {
	// Replicas are the wire-protocol addresses of the backend
	// vegapunkd processes. At least one is required.
	Replicas []string
	// IOTimeout bounds every backend read/write (default 10s).
	IOTimeout time.Duration
	// ProbeInterval is the active health-probe period (default 250ms).
	ProbeInterval time.Duration
	// PoolSize is the idle backend connections kept per replica
	// (default 4).
	PoolSize int

	// TraceURLs are the base URLs of each replica's debug listener
	// (e.g. "http://127.0.0.1:18472"), parallel to Replicas; entries
	// may be empty. /debug/clustertrace fetches each replica's
	// /debug/decodetrace from here and merges it with the router's own
	// spans.
	TraceURLs []string
	// TraceSampleEvery traces one in every N requests whose trace id
	// the router issues (default 8; 1 traces everything). Client requests
	// that arrive with their own trace id keep the client's sampling
	// decision.
	TraceSampleEvery uint64

	// HedgeAfter, when > 0, arms hedged dispatch: if the primary
	// replica has not produced the first response of a batch within
	// HedgeAfter, the router abandons that connection (loser
	// cancellation — the slow replica is NOT marked down) and re-sends
	// the undone lanes to the healthy sibling. Zero disables hedging.
	// Hedges are capped at hedgeMaxRate of forwarded batches.
	HedgeAfter time.Duration
	// RetryAfterHint is how long routing deprioritises a replica after
	// it answers StatusOverload or StatusDecoderFault (default 25ms) —
	// the wire protocol's Retry-After: the replica asked for breathing
	// room or is replacing a faulty decoder, so prefer the sibling until
	// the hint expires. A replica that keeps faulting is backed off
	// longer: each consecutive forward that meets a decoder fault
	// doubles the hint, up to 64× (1.6s at the default). A fired hedge
	// applies the flat hint to the slow replica (outlier ejection), and
	// a suspended replica is never chosen as a hedge target.
	RetryAfterHint time.Duration
}

// Parameters with one value: nothing measured or deployed needs another.
const (
	// dialTimeout bounds one backend dial.
	dialTimeout = 2 * time.Second
	// maxFaultShift caps the decoder-fault backoff at RetryAfterHint<<6.
	maxFaultShift = 6
	// hedgeMaxRate caps hedges as a fraction of forwarded batches: each
	// primary batch earns that many hedge tokens and firing a hedge
	// spends one, so a uniformly slow link cannot double the fleet's
	// load. The bucket starts full at hedgeBurst.
	hedgeMaxRate = 0.1
	hedgeBurst   = 8
)

func (c Config) withDefaults() Config {
	if c.IOTimeout <= 0 {
		c.IOTimeout = 10 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.TraceSampleEvery == 0 {
		c.TraceSampleEvery = 8
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = 25 * time.Millisecond
	}
	return c
}

// State is a replica's health as the router sees it. The ordering is
// load-bearing: routing prefers the numerically highest state.
type State int32

const (
	// StateDown: dial or transport failure; excluded from routing until
	// a probe succeeds.
	StateDown State = iota
	// StateDraining: the replica answered with wire.FlagDraining;
	// routed to only when no healthy replica remains.
	StateDraining
	// StateHealthy: full routing weight.
	StateHealthy
)

func (s State) String() string {
	switch s {
	case StateDown:
		return "down"
	case StateDraining:
		return "draining"
	case StateHealthy:
		return "healthy"
	}
	return "invalid"
}

// errBackoff gates redials while a replica's backoff window is open.
var errBackoff = errors.New("cluster: replica dial backoff open")

// replica is one backend address: its health state, idle-connection
// pool, dial backoff and per-replica counters.
type replica struct {
	addr string
	idx  int
	hash uint64
	// traceURL is the base URL of the replica's debug listener, or ""
	// (Config.TraceURLs); /debug/clustertrace fetches spans from it.
	traceURL string
	state    atomic.Int32
	idle     chan *wire.Client
	// nextDial gates redials: no dial before this obs tick.
	nextDial  atomic.Int64
	backoffNs atomic.Int64

	decodes    obs.Counter
	failovers  obs.Counter
	dialErrors obs.Counter
	open       obs.Gauge

	// suspendUntil deprioritises routing to this replica until the obs
	// tick it holds: set when the replica answers StatusOverload or
	// StatusDecoderFault (Retry-After honoring). A suspended healthy replica ranks as
	// draining in pick, so it still serves as the last resort.
	suspendUntil atomic.Int64
	// faultStreak counts consecutive forwards that met a decoder fault;
	// each doubles the suspension the next fault sets, up to
	// maxFaultShift doublings.
	faultStreak atomic.Uint32

	// Network/server split: router wall clock per relayed decode minus the
	// replica-reported decode-path time (queue wait + decode + copy
	// out) is network time; the remainder is server time.
	netSeconds    *obs.Histogram
	serverSeconds *obs.Histogram
	// clockOffset estimates replicaClock − routerClock in nanoseconds:
	// the running max of (reported server tick − router receive tick)
	// over this replica's responses. Each observation lower-bounds the
	// true offset by that response's one-way network delay, so the max
	// over a connection's traffic converges from below — tight enough
	// that a replica span realigned by it lands strictly inside the
	// router span that covers it.
	clockOffset atomic.Int64
	offsetKnown atomic.Bool
}

// observeTiming records one relayed decode's network-vs-server split
// and folds the replica's clock reading into the offset estimate.
func (r *replica) observeTiming(wallNs int64, tm *wire.ServerTiming, recvTick int64) {
	server := tm.ServerNs()
	net := wallNs - server
	if net < 0 {
		net = 0
	}
	r.netSeconds.Observe(obs.DurSeconds(net))
	r.serverSeconds.Observe(obs.DurSeconds(server))
	if tm.ServerTick == 0 {
		return
	}
	off := tm.ServerTick - recvTick
	for {
		cur := r.clockOffset.Load()
		if r.offsetKnown.Load() && off <= cur {
			return
		}
		if r.clockOffset.CompareAndSwap(cur, off) {
			r.offsetKnown.Store(true)
			return
		}
	}
}

// suspend deprioritises the replica for d after it reported overload
// or a decoder fault.
func (r *replica) suspend(now int64, d time.Duration) {
	if d <= 0 {
		return
	}
	until := now + int64(d)
	if until > r.suspendUntil.Load() {
		// Benign race: concurrent suspensions differ by nanoseconds.
		r.suspendUntil.Store(until)
	}
}

// setState transitions the replica, counting Healthy/Draining→Down
// transitions as failovers.
func (r *replica) setState(s State) {
	old := State(r.state.Swap(int32(s)))
	if s == StateDown && old != StateDown {
		r.failovers.Add(1)
	}
}

// markDown records a transport failure: state down, idle pool drained.
func (r *replica) markDown() {
	r.setState(StateDown)
	for {
		select {
		case c := <-r.idle:
			_ = c.Close() // best-effort: the transport already failed
			r.open.Add(-1)
		default:
			return
		}
	}
}

// A failed dial closes the replica to dials for redialBackoff, doubled
// per consecutive failure up to maxRedialBackoff; a successful dial
// resets it.
const (
	redialBackoff    = 100 * time.Millisecond
	maxRedialBackoff = 5 * time.Second
)

// acquire returns a pooled backend connection, dialing one if the
// backoff window allows.
func (r *replica) acquire(cfg *Config) (*wire.Client, error) {
	select {
	case c := <-r.idle:
		return c, nil
	default:
	}
	now := obs.Tick()
	if now < r.nextDial.Load() {
		return nil, errBackoff
	}
	c, err := wire.Dial(r.addr, dialTimeout, cfg.IOTimeout)
	if err != nil {
		r.dialErrors.Add(1)
		bo := r.backoffNs.Load()
		if bo <= 0 {
			bo = int64(redialBackoff)
		} else if bo < int64(maxRedialBackoff) {
			bo *= 2
			if bo > int64(maxRedialBackoff) {
				bo = int64(maxRedialBackoff)
			}
		}
		r.backoffNs.Store(bo)
		r.nextDial.Store(now + bo)
		r.markDown()
		return nil, err
	}
	r.backoffNs.Store(0)
	r.open.Add(1)
	return c, nil
}

// release returns a live connection to the idle pool, or closes it.
func (r *replica) release(c *wire.Client, alive bool) {
	if c == nil {
		return
	}
	if alive && State(r.state.Load()) != StateDown {
		select {
		case r.idle <- c:
			return
		default:
		}
	}
	_ = c.Close() // best-effort: surplus or dead connection
	r.open.Add(-1)
}

// Router is the front end: it accepts wire-protocol client connections
// and shards their model keys across the replica set.
type Router struct {
	cfg      Config
	replicas []*replica

	// wire is the client-facing endpoint: listeners, connections, the
	// drain flag and the frame loop; frontend.go supplies its handler.
	wire *wire.Server

	probeStop chan struct{}
	probeDone chan struct{}

	retries   obs.Counter
	noReplica obs.Counter
	// protoErrors counts bad backend frames, each of which ended its
	// connection; the endpoint counts the client side.
	protoErrors obs.Counter

	// Network-fault-tolerance accounting: hedged batches and the subset
	// whose lanes the sibling actually completed, and backend
	// connections re-established after a transport failure, a bad frame
	// or a hedge.
	hedges     obs.Counter
	hedgeWins  obs.Counter
	reconnects obs.Counter
	// hedgeBucket caps hedges as a fraction of forwarded batches.
	hedgeBucket tokenBucket

	// tracer records the router's own forward spans (one ring per
	// client connection) and issues trace ids for requests that arrive
	// without one.
	tracer *obs.Tracer

	// ringFree recycles span rings across client connections: a ring
	// registers with the tracer once and is then handed from closed
	// connections to new ones, so connection churn does not grow the
	// tracer's ring set without bound. The mutex hand-off provides the
	// happens-before edge the single-writer Ring contract needs.
	ringMu   sync.Mutex
	ringFree []*obs.Ring
}

// acquireRing hands a span ring to a client-connection goroutine,
// reusing one from a closed connection when available.
func (r *Router) acquireRing() *obs.Ring {
	r.ringMu.Lock()
	defer r.ringMu.Unlock()
	if n := len(r.ringFree); n > 0 {
		rg := r.ringFree[n-1]
		r.ringFree = r.ringFree[:n-1]
		return rg
	}
	return r.tracer.Ring()
}

// releaseRing returns a connection's ring to the free list. Spans from
// the closed connection stay in the ring until overwritten — they are
// completed spans and remain valid trace output.
func (r *Router) releaseRing(rg *obs.Ring) {
	r.ringMu.Lock()
	r.ringFree = append(r.ringFree, rg)
	r.ringMu.Unlock()
}

// New builds a router over the replica set and starts its health-probe
// loop. Replicas start optimistically healthy; the first failed dial or
// transport error demotes them.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: at least one replica address required")
	}
	r := &Router{
		cfg:       cfg,
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
		tracer:    obs.NewTracer(obs.TracerConfig{SampleEvery: cfg.TraceSampleEvery}),
	}
	r.wire = wire.NewServer(func() wire.Handler { return newFEConn(r) })
	// The burst absorbs a short slow spell without exceeding the
	// long-run rate.
	r.hedgeBucket.init(hedgeBurst)
	for i, addr := range cfg.Replicas {
		rep := &replica{
			addr:          addr,
			idx:           i,
			hash:          hash64(addr),
			idle:          make(chan *wire.Client, cfg.PoolSize),
			netSeconds:    obs.NewHistogram(obs.LatencyBuckets()...),
			serverSeconds: obs.NewHistogram(obs.LatencyBuckets()...),
		}
		if i < len(cfg.TraceURLs) {
			rep.traceURL = cfg.TraceURLs[i]
		}
		rep.state.Store(int32(StateHealthy))
		r.replicas = append(r.replicas, rep)
	}
	go r.probeLoop() // parks on probeStop; Shutdown closes it and receives probeDone
	return r, nil
}

// hash64 is FNV-1a, the shard hash for replica addresses and model
// keys.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the rendezvous score finalizer (splitmix64 tail): replica
// hash and key hash combine into a per-pair score and the highest
// scoring usable replica wins, so each key pins to one replica and a
// membership change only remaps the keys of the lost replica.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// pick returns the rendezvous winner for keyHash among usable replicas
// (healthy preferred over draining, down excluded), skipping exclude —
// the retry sibling selector. A healthy replica inside its suspension
// window (Retry-After honoring) ranks as draining: still
// usable as the last resort, but routed around while the hint holds.
func (r *Router) pick(keyHash uint64, exclude *replica) *replica {
	var best *replica
	var bestScore uint64
	bestState := StateDown
	now := int64(-1)
	for _, rep := range r.replicas {
		if rep == exclude {
			continue
		}
		st := State(rep.state.Load())
		if st == StateDown {
			continue
		}
		if st == StateHealthy {
			if su := rep.suspendUntil.Load(); su > 0 {
				if now < 0 {
					now = obs.Tick()
				}
				if su > now {
					st = StateDraining
				}
			}
		}
		score := mix64(rep.hash ^ keyHash)
		if best == nil || st > bestState || (st == bestState && score > bestScore) {
			best, bestScore, bestState = rep, score, st
		}
	}
	return best
}

// probeLoop actively pings every replica each ProbeInterval: the rejoin
// path for down and drained replicas.
func (r *Router) probeLoop() {
	defer close(r.probeDone)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.probeStop:
			return
		case <-t.C:
		}
		for _, rep := range r.replicas {
			r.probe(rep)
		}
	}
}

// probe pings one replica and applies the verdict.
func (r *Router) probe(rep *replica) {
	c, err := rep.acquire(&r.cfg)
	if err != nil {
		if !errors.Is(err, errBackoff) {
			rep.setState(StateDown)
		}
		return
	}
	flags, err := c.Ping()
	if err != nil {
		rep.release(c, false)
		rep.markDown()
		return
	}
	if flags&wire.FlagDraining != 0 {
		rep.setState(StateDraining)
	} else {
		rep.setState(StateHealthy)
	}
	rep.release(c, true)
}

// observeFlags applies passive health from a successful response.
func (rep *replica) observeFlags(flags wire.Flags) {
	if flags&wire.FlagDraining != 0 {
		if State(rep.state.Load()) == StateHealthy {
			rep.setState(StateDraining)
		}
	} else if State(rep.state.Load()) == StateDraining {
		rep.setState(StateHealthy)
	}
}

// Serve accepts client connections on l until Shutdown.
func (r *Router) Serve(l net.Listener) error { return r.wire.Serve(l) }

// ListenAndServe binds addr and serves until Shutdown.
func (r *Router) ListenAndServe(addr string) error { return r.wire.ListenAndServe(addr) }

// Shutdown drains the router: stop probing, then the endpoint's drain
// (stop accepting, interrupt idle client reads, wait for in-flight
// batches bounded by ctx, force-close stragglers), then close the
// backend pools.
func (r *Router) Shutdown(ctx context.Context) error {
	// Flag first: a probe in flight can hold probeDone for an IO timeout,
	// and clients and /healthz should see the drain meanwhile.
	r.wire.SetDraining(true)
	select {
	case <-r.probeStop:
	default:
		close(r.probeStop)
	}
	<-r.probeDone
	err := r.wire.Shutdown(ctx)
	for _, rep := range r.replicas {
		rep.markDown()
	}
	return err
}
