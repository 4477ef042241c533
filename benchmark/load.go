package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// clock is the harness's one monotonic clock, shared with the spans.
func clock() int64 { return int64(time.Since(traceEpoch)) }

// pool is a workload's fixed input set. The program under test sees
// only syn; the harness keeps obs, the observable flips of the sampled
// errors, to score the answers.
type pool struct {
	syn, obs []gf2.Vec
	// hash identifies the syndromes, so that two artifacts can show they
	// decoded the same inputs.
	hash uint64
}

// samplePool draws n errors from the model with PCG(seed, stream).
func samplePool(model *dem.Model, n int, seed, stream uint64) *pool {
	rng := rand.New(rand.NewPCG(seed, stream))
	p := &pool{syn: make([]gf2.Vec, n), obs: make([]gf2.Vec, n)}
	e := gf2.NewVec(model.NumMech())
	h := fnv.New64a()
	var word [8]byte
	for i := 0; i < n; i++ {
		model.SampleInto(e, rng)
		p.syn[i] = model.Syndrome(e)
		p.obs[i] = model.Observables(e)
		for w := 0; w < (model.NumDet+63)/64; w++ {
			binary.LittleEndian.PutUint64(word[:], p.syn[i].Word(w))
			_, _ = h.Write(word[:]) // hash.Hash.Write never fails
		}
	}
	p.hash = h.Sum64()
	return p
}

// tally counts what a client saw in one phase.
type tally struct {
	requests, failed int // requests, and those with an error or any bad lane
	lanes            int
	unsat            int // lanes with D·ê ≠ s by the harness's recomputation
	logical          int // lanes whose correction flips the wrong observables
	degraded         int // lanes answered below TierFull
	// scheduled and missed are a paced segment's due requests and those
	// that failed, were never sent, or took longer than the limit from
	// their due time.
	scheduled, missed int
}

func (t *tally) add(o tally) {
	t.requests += o.requests
	t.failed += o.failed
	t.lanes += o.lanes
	t.unsat += o.unsat
	t.logical += o.logical
	t.degraded += o.degraded
	t.scheduled += o.scheduled
	t.missed += o.missed
}

// stageAcc sums, over traced requests, the request wall time and the
// replica-reported stage times of the request's slowest lane — the lane
// the request waited for, so the one whose stages are on its blocking
// path. wall − (queue + decode + copy) is then time outside the
// replica's accounting.
type stageAcc struct {
	n                                     int
	wall, queue, assemble, decode, copied float64 // µs
	queueUs                               []float64
}

func (s *stageAcc) add(wallNs int64, out []answer) {
	crit := &out[0]
	for i := range out {
		if out[i].serverNs() > crit.serverNs() {
			crit = &out[i]
		}
	}
	s.n++
	s.wall += float64(wallNs) / 1e3
	s.queue += float64(crit.queueNs) / 1e3
	s.assemble += float64(crit.assembleNs) / 1e3
	s.decode += float64(crit.decodeNs) / 1e3
	s.copied += float64(crit.copyNs) / 1e3
	s.queueUs = append(s.queueUs, float64(crit.queueNs)/1e3)
}

func (s *stageAcc) merge(o *stageAcc) {
	s.n += o.n
	s.wall += o.wall
	s.queue += o.queue
	s.assemble += o.assemble
	s.decode += o.decode
	s.copied += o.copied
	s.queueUs = append(s.queueUs, o.queueUs...)
}

// client is one load goroutine's state: its way in, its verification
// scratch and what it has measured in the current phase.
type client struct {
	id    int
	cn    conn
	model *dem.Model
	width int // syndromes per request
	out   []answer
	syn   gf2.Vec // scratch: D·ê
	obs   gf2.Vec // scratch: L·ê
	tr    *tracer // nil unless this phase is traced
	// next is the client's position in its walk over the pool's requests;
	// it persists across phases so that every phase sees fresh inputs in
	// a seed-determined order.
	next int

	tally
	lat    []float64 // µs per request
	late   []float64 // µs the paced generator sent after the due time
	stages stageAcc
	err    error // first request error, for the report
}

func newClient(id int, cn conn, e *env) *client {
	return &client{
		id: id, cn: cn, model: e.model, width: e.sp.lanes,
		out: make([]answer, e.sp.lanes),
		syn: gf2.NewVec(e.model.NumDet), obs: gf2.NewVec(e.model.NumObs),
		next: id,
	}
}

func newClients(e *env) []*client {
	cs := make([]*client, len(e.conns))
	for i, cn := range e.conns {
		cs[i] = newClient(i, cn, e)
	}
	return cs
}

// reset clears the per-phase measurements and sets the phase's tracer.
func (c *client) reset(tr *tracer) {
	c.tr = tr
	c.tally = tally{}
	c.lat = c.lat[:0]
	c.late = c.late[:0]
	c.stages = stageAcc{}
}

// issue sends request r of the pool (lanes [r·width, (r+1)·width)) at
// start, verifies every answer after the reply, and returns when the
// reply arrived. The request's latency runs from from: start in a closed
// loop, the due time in a paced one. Verification is outside the latency
// but inside the segment, as a caller's own checking would be.
func (c *client) issue(ctx context.Context, p *pool, r int, start, from int64) (done int64) {
	first := r * c.width
	c.tr.open(spanRequest, uint32(c.requests), start)
	err := c.cn.do(ctx, p.syn[first:first+c.width], c.out, c.tr)
	done = clock()
	c.tr.close(done)
	c.requests++
	c.lat = append(c.lat, float64(done-from)/1e3)
	c.score(first, p, err, done-start)
	return done
}

// score verifies and counts one finished request.
func (c *client) score(first int, p *pool, err error, wallNs int64) {
	c.lanes += c.width
	if err != nil {
		c.failed++
		if c.err == nil {
			c.err = err
		}
		return
	}
	if c.tr != nil {
		c.stages.add(wallNs, c.out)
	}
	t := c.tr.now()
	c.tr.open(spanCheck, uint32(c.requests-1), t)
	bad := false
	for i := range c.out {
		if c.check(p, first+i, &c.out[i]) {
			bad = true
		}
	}
	c.tr.close(c.tr.now())
	if bad {
		c.failed++
		if c.err == nil {
			c.err = fmt.Errorf("request at pool lane %d: an answer failed verification", first)
		}
	}
}

// check recomputes D·ê and L·ê for one answer and reports whether the
// answer is defective — as opposed to merely wrong, which a decoder is
// allowed to be: an unsatisfied or logically failed correction is
// counted, not failed. Defective means not decoded, degraded, of the
// wrong length, or carrying a Satisfied flag or observables that
// disagree with the recomputation.
func (c *client) check(p *pool, idx int, a *answer) (bad bool) {
	if a.degraded {
		c.degraded++
	}
	if !a.ok || a.degraded || a.correction.Len() != c.model.NumMech() {
		return true
	}
	t := c.tr.now()
	c.model.SyndromeInto(c.syn, a.correction)
	c.tr.call(spanDemSyndrome, t)
	sat := c.syn.Equal(p.syn[idx])
	if !sat {
		c.unsat++
	}
	t = c.tr.now()
	c.model.ObservablesInto(c.obs, a.correction)
	c.tr.call(spanDemObservables, t)
	if !c.obs.Equal(p.obs[idx]) {
		c.logical++
	}
	if a.flagged && a.satisfied != sat {
		return true
	}
	return a.observables.Len() != 0 && !a.observables.Equal(c.obs)
}

// segment is one measured phase, merged over its clients.
type segment struct {
	tally
	wallS   float64
	cpuUs   float64   // process user+sys CPU spent during the phase
	mallocs uint64    // MemStats.Mallocs delta over the phase
	lat     []float64 // sorted, µs per request
	late    []float64 // µs the paced generator sent after the due time
	stages  stageAcc
	err     error
}

func (s *segment) syndromesPerS() float64 { return float64(s.lanes) / s.wallS }

func cpuMicros() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	us := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }
	return us(ru.Utime) + us(ru.Stime), nil
}

// runClients runs body once per client, concurrently, and merges what
// the clients measured. Wall time, process CPU and mallocs are read
// around it.
func runClients(clients []*client, tracers []*tracer, body func(c *client)) (*segment, error) {
	for i, c := range clients {
		var tr *tracer
		if tracers != nil {
			tr = tracers[i]
		}
		c.reset(tr)
	}
	// Start every phase from a collected heap, so that one phase's
	// garbage is not collected on the next one's clock.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	cpu0, err := cpuMicros()
	if err != nil {
		return nil, err
	}
	t0 := clock()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	wg.Wait()
	wall := clock() - t0
	cpu1, err := cpuMicros()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)

	s := &segment{wallS: float64(wall) / 1e9, cpuUs: cpu1 - cpu0, mallocs: ms.Mallocs - mallocs0}
	for _, c := range clients {
		s.tally.add(c.tally)
		s.lat = append(s.lat, c.lat...)
		s.late = append(s.late, c.late...)
		s.stages.merge(&c.stages)
		if s.err == nil {
			s.err = c.err
		}
	}
	sort.Float64s(s.lat)
	return s, nil
}

// verifyPass sends the whole pool through the workload's path exactly
// once. It doubles as warm-up, and it alone feeds logical_error_rate and
// unsatisfied_share, which therefore repeat exactly for a seed.
func verifyPass(ctx context.Context, clients []*client, p *pool) (*segment, error) {
	return runClients(clients, nil, func(c *client) {
		n := len(p.syn) / c.width
		for r := c.id; r < n; r += len(clients) {
			t := clock()
			c.issue(ctx, p, r, t, t)
		}
	})
}

// nextRequest advances the client's walk over the pool.
func (c *client) nextRequest(p *pool, stride int) int {
	r := c.next
	c.next = (c.next + stride) % (len(p.syn) / c.width)
	return r
}

// runClosed is the closed-loop segment: every client sends its next
// request as soon as the previous one is answered, for dur.
func runClosed(ctx context.Context, clients []*client, tracers []*tracer, p *pool, dur time.Duration) (*segment, error) {
	return runClients(clients, tracers, func(c *client) {
		end := clock() + int64(dur)
		for start := clock(); start < end; start = clock() {
			c.issue(ctx, p, c.nextRequest(p, len(clients)), start, start)
		}
	})
}

// schedule is one client's share of a paced segment's arrivals: request
// k is due at offset + k·spacing after the segment starts.
type schedule struct {
	offset, spacing time.Duration
	n               int
}

// due is when request k is due in a segment that began at start.
func (s schedule) due(start int64, k int) int64 {
	return start + int64(s.offset) + int64(k)*int64(s.spacing)
}

// waited lists how long each of the schedule's last unsent requests had
// been due at gaveUp: a lower bound of the latency it would have had.
func (s schedule) waited(start, gaveUp int64, unsent int) []int64 {
	out := make([]int64, 0, unsent)
	for k := s.n - unsent; k < s.n; k++ {
		out = append(out, gaveUp-s.due(start, k))
	}
	return out
}

// paceFor splits an arrival rate (requests/s) over clients: each owns
// every clients-th arrival, staggered by its index.
func paceFor(reqPerS float64, clients, id int, dur time.Duration) schedule {
	gap := time.Duration(float64(time.Second) / reqPerS)
	s := schedule{offset: time.Duration(id) * gap, spacing: time.Duration(clients) * gap}
	if s.offset < dur {
		s.n = int((dur-s.offset-1)/s.spacing) + 1
	}
	return s
}

// runSchedule walks one client's schedule: sleep to the next due time,
// then issue every request already due, one after another. A request's
// latency runs from its due time, so a stall is charged to the requests
// it delayed; what is still unsent at the end of the segment is returned
// as unsent. now, sleep and issue are the clock, the wait and the
// request, passed in so that the accounting can be tested without a
// system under test.
func runSchedule(s schedule, start, end int64, now func() int64, sleep func(time.Duration),
	issue func(start, due int64) (done int64, ok bool), record func(latencyNs, lateNs int64, ok bool)) (unsent int) {
	for k := 0; k < s.n; k++ {
		due := s.due(start, k)
		t := now()
		if t >= end {
			return s.n - k
		}
		if t < due {
			sleep(time.Duration(due - t))
			t = now()
		}
		done, ok := issue(t, due)
		record(done-due, t-due, ok)
	}
	return 0
}

// sleepFor blocks the calling thread in nanosleep(2). time.Sleep will
// not do: an idle Go runtime waits for its timers in epoll_wait, whose
// timeout counts whole milliseconds, so a 250 µs sleep takes over a
// millisecond and the paced schedule would measure the timer, not the
// system. The kernel's own timer is late by its 50 µs slack and no more;
// harness.generator_late_us_p99 reports what is left.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return // slept, or an argument error that cannot happen for d > 0
		}
		ts = rem
	}
}

// runPaced is the paced segment: arrivals at a fixed rate of syndromes
// per second whatever the system's speed, each scored against limitUs.
func runPaced(ctx context.Context, clients []*client, tracers []*tracer, p *pool, dur time.Duration, synPerS, limitUs float64) (*segment, error) {
	return runClients(clients, tracers, func(c *client) {
		sch := paceFor(synPerS/float64(c.width), len(clients), c.id, dur)
		start := clock()
		c.scheduled = sch.n
		unsent := runSchedule(sch, start, start+int64(dur), clock, sleepFor,
			func(t, due int64) (int64, bool) {
				before := c.failed
				done := c.issue(ctx, p, c.nextRequest(p, len(clients)), t, due)
				return done, c.failed == before
			},
			func(latNs, lateNs int64, ok bool) {
				c.late = append(c.late, float64(lateNs)/1e3)
				if !ok || float64(latNs)/1e3 > limitUs {
					c.missed++
				}
			})
		c.missed += unsent
	})
}
