package serve

// The overload drill drives one in-process service at twice the
// throughput it just measured, open loop, with every request carrying a
// short deadline, and asserts that the service never latches: no
// 250 ms window after warm-up may answer under 1 % of the syndromes
// offered in it. It logs what each run answered and how well.

import (
	"context"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"vegapunk/internal/code"
	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

const (
	drillLanes  = 64                     // syndromes per request
	drillWindow = 250 * time.Millisecond // latch-check window
	drillRun    = 1500 * time.Millisecond
)

// drillPool is a seeded pool of syndromes with their true observables.
type drillPool struct {
	syn, obs []gf2.Vec
}

func newDrillPool(model *dem.Model, n int, seed uint64) drillPool {
	rng := rand.New(rand.NewPCG(seed, 0x0d))
	p := drillPool{syn: make([]gf2.Vec, n), obs: make([]gf2.Vec, n)}
	e := gf2.NewVec(model.NumMech())
	for i := range p.syn {
		model.SampleInto(e, rng)
		p.syn[i] = model.Syndrome(e)
		p.obs[i] = model.Observables(e)
	}
	return p
}

// request returns the k-th request's lanes: drillLanes consecutive pool
// entries from a seeded offset.
func (p drillPool) request(k int) (syn, obs []gf2.Vec) {
	off := int(rand.New(rand.NewPCG(uint64(k), 0x5e)).Uint64() % uint64(len(p.syn)-drillLanes))
	return p.syn[off : off+drillLanes], p.obs[off : off+drillLanes]
}

// drillModel is the drill's model: BB [[72,12,6]] under circuit-level
// noise at p = 0.003, decoded by the served bp model.
func drillModel(t testing.TB) (*dem.Model, core.Factory) {
	t.Helper()
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CircuitLevel(c, 0.003)
	return model, func() core.Decoder { return core.NewBP(model, 30) }
}

// saturation measures syndromes per second decoded by 8 closed-loop
// clients of drillLanes-syndrome requests over d.
func saturation(t testing.TB, svc *Service, p drillPool, d time.Duration) float64 {
	t.Helper()
	const clients = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := make([]Result, drillLanes)
			n := 0
			for k := c; time.Since(start) < d; k += clients {
				syn, _ := p.request(k)
				if err := svc.DecodeBatchInto(context.Background(), res, syn); err != nil {
					t.Errorf("saturation request: %v", err)
					return
				}
				n += drillLanes
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return float64(total) / time.Since(start).Seconds()
}

// drillStats is one open-loop run's tally.
type drillStats struct {
	offered, answered, wrong, unsatisfied int
	// Per latch window (by scheduled issue time): syndromes offered and
	// answered.
	winOffered, winAnswered []int
	// Per request with an answer: latency from scheduled issue to
	// return, and how many of its lanes were answered.
	lat []time.Duration
	ans []int
	// The generator's lateness: each request's goroutine start minus its
	// scheduled issue.
	late []time.Duration
}

// p99 is the answered lanes' 99th-percentile latency from issue.
func (s *drillStats) p99() time.Duration {
	idx := make([]int, len(s.lat))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return int(s.lat[a] - s.lat[b]) })
	need, seen := (s.answered*99+99)/100, 0
	for _, i := range idx {
		if seen += s.ans[i]; seen >= need {
			return s.lat[i]
		}
	}
	return 0
}

// openLoop offers drillLanes-syndrome requests at rate syndromes per
// second for drillRun, each with deadline counted from when its
// goroutine starts, and tallies the answers.
func openLoop(svc *Service, p drillPool, rate float64, deadline time.Duration) *drillStats {
	interval := time.Duration(float64(drillLanes) / rate * float64(time.Second))
	wins := int(drillRun / drillWindow)
	st := &drillStats{winOffered: make([]int, wins), winAnswered: make([]int, wins)}
	free := make(chan []Result, 1024)
	var mu sync.Mutex
	var wg sync.WaitGroup
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	start := time.Now()
	for k := 0; ; {
		now := <-tick.C
		if now.Sub(start) >= drillRun {
			break
		}
		for ; time.Duration(k)*interval <= now.Sub(start); k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				issued := start.Add(time.Duration(k) * interval)
				late := time.Since(issued)
				var res []Result
				select {
				case res = <-free:
				default:
					res = make([]Result, drillLanes)
				}
				for i := range res {
					res[i].DecodeNs = -1 // collect writes a value ≥ 0
				}
				syn, obs := p.request(k)
				ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(deadline))
				_ = svc.DecodeBatchInto(ctx, res, syn) // per-lane outcomes are read below
				cancel()
				lat := time.Since(issued)
				answered, wrong, unsat := 0, 0, 0
				for i := range res {
					if res[i].DecodeNs < 0 {
						continue
					}
					answered++
					if !res[i].Observables.Equal(obs[i]) {
						wrong++
					}
					if !res[i].Satisfied {
						unsat++
					}
				}
				mu.Lock()
				st.offered += drillLanes
				st.answered += answered
				st.wrong += wrong
				st.unsatisfied += unsat
				st.late = append(st.late, late)
				if w := int(issued.Sub(start) / drillWindow); w < wins {
					st.winOffered[w] += drillLanes
					st.winAnswered[w] += answered
				}
				if answered > 0 {
					st.lat = append(st.lat, lat)
					st.ans = append(st.ans, answered)
				}
				mu.Unlock()
				select {
				case free <- res:
				default:
				}
			}(k)
		}
	}
	wg.Wait()
	return st
}

// TestOverloadDrill runs the drill at seeds 1 and 11 (the seed draws
// the pool) and at 10 ms and 25 ms deadlines, on a fresh service per
// run: BB [[72,12,6]] circuit-level p = 0.003, core.NewBP(model, 30),
// MaxBatch 64, offered twice the measured saturation.
func TestOverloadDrill(t *testing.T) {
	if raceEnabled {
		// A 64-lane dispatch then takes most of a 10 ms deadline, and the
		// packages beside it in a -race run decide how much of the CPU the
		// drill gets after it measured saturation: the windows would
		// measure the detector, not the service. CI runs the drill
		// without -race.
		t.Skip("timing drill; run without -race")
	}
	model, factory := drillModel(t)
	cfg := Config{MaxBatch: 64}
	for _, seed := range []uint64{1, 11} {
		pool := newDrillPool(model, 8192, seed)
		sat := func() float64 {
			svc := newService("drill", model, "BP(30)", factory, cfg)
			defer svc.Close()
			return saturation(t, svc, pool, 500*time.Millisecond)
		}()
		for _, deadline := range []time.Duration{10 * time.Millisecond, 25 * time.Millisecond} {
			svc := newService("drill", model, "BP(30)", factory, cfg)
			st := openLoop(svc, pool, 2*sat, deadline)
			svc.Close()
			answered := max(st.answered, 1)
			slices.Sort(st.late)
			t.Logf("seed %d, %v deadline, %.0f syn/s offered (2× %.0f): answered share %.3f, answered p99 %v, "+
				"wrong per answered %.4f, unsatisfied per answered %.4f, correct per offered %.3f, generator late p99 %v",
				seed, deadline, 2*sat, sat, float64(st.answered)/float64(st.offered), st.p99().Round(100*time.Microsecond),
				float64(st.wrong)/float64(answered), float64(st.unsatisfied)/float64(answered),
				float64(st.answered-st.wrong)/float64(st.offered), st.late[len(st.late)*99/100].Round(100*time.Microsecond))
			for w := 1; w < len(st.winOffered); w++ { // window 0 is warm-up
				if off := st.winOffered[w]; off > 0 && 100*st.winAnswered[w] < off {
					t.Errorf("seed %d, %v deadline: latched in window %d: answered %d of %d syndromes offered",
						seed, deadline, w, st.winAnswered[w], off)
				}
			}
		}
	}
}
