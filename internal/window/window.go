// Package window implements sliding-window decoding of long memory
// experiments: each step decodes a space-time window of several rounds
// but commits only its oldest rounds, so decoding latency stays bounded
// while measurement-error correlations across round boundaries are still
// used. This is the deployment mode of the paper's related work (e.g.
// BP+GDG's sliding window) and an extension beyond the paper's per-round
// evaluation; any core.Decoder built on the window's space-time model
// plugs in — including Vegapunk with a decoupled window matrix.
package window

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// Config shapes the sliding window.
type Config struct {
	// Window is the number of rounds decoded per step; Commit the number
	// of oldest rounds whose corrections are finalized each step
	// (0 < Commit ≤ Window).
	Window, Commit int
}

// Runner decodes syndrome streams for a fixed per-round model.
type Runner struct {
	per    *dem.Model
	win    *dem.Model
	cfg    Config
	newDec func(*dem.Model) core.Decoder
	mu     sync.Mutex
	decs   []core.Decoder
}

// New builds a runner. factory constructs the inner decoder for the
// window's space-time model (called once per worker).
func New(per *dem.Model, cfg Config, factory func(*dem.Model) core.Decoder) (*Runner, error) {
	if cfg.Window < 1 || cfg.Commit < 1 || cfg.Commit > cfg.Window {
		return nil, fmt.Errorf("window: invalid config %+v", cfg)
	}
	win := dem.SpaceTime(per, cfg.Window)
	return &Runner{per: per, win: win, cfg: cfg, newDec: factory}, nil
}

// WindowModel exposes the space-time model the inner decoder sees.
func (r *Runner) WindowModel() *dem.Model { return r.win }

func (r *Runner) getDecoder() core.Decoder {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.decs); n > 0 {
		d := r.decs[n-1]
		r.decs = r.decs[:n-1]
		return d
	}
	return r.newDec(r.win)
}

func (r *Runner) putDecoder(d core.Decoder) {
	r.mu.Lock()
	r.decs = append(r.decs, d)
	r.mu.Unlock()
}

// straddles reports whether per-round mechanism j is measurement-like
// (single detector, no observable) — the same rule dem.SpaceTime uses to
// extend signatures into the following round.
func (r *Runner) straddles(j int) bool {
	return r.per.Mech.ColWeight(j) == 1 && r.per.Obs.ColWeight(j) == 0
}

// DecodeStream consumes a full-experiment syndrome (rounds·m detectors,
// as produced by dem.SpaceTime(per, rounds)) and returns the predicted
// observable flips.
func (r *Runner) DecodeStream(syndrome gf2.Vec, rounds int) gf2.Vec {
	m := r.per.NumDet
	nm := r.per.NumMech()
	if syndrome.Len() != rounds*m {
		panic(fmt.Sprintf("window: syndrome has %d bits, want %d", syndrome.Len(), rounds*m))
	}
	dec := r.getDecoder()
	defer r.putDecoder(dec)

	residual := syndrome.Clone()
	pred := gf2.NewVec(r.per.NumObs)

	for t := 0; t < rounds; t += r.cfg.Commit {
		w := r.cfg.Window
		if t+w > rounds {
			w = rounds - t
		}
		// Assemble the window syndrome (zero-padded to Window rounds so
		// the inner decoder's shape is fixed).
		ws := gf2.NewVec(r.cfg.Window * m)
		for i := 0; i < w*m; i++ {
			if residual.Get(t*m + i) {
				ws.Set(i, true)
			}
		}
		est, _ := dec.Decode(ws)
		// Commit region: the oldest Commit rounds, or everything on the
		// final window.
		commitRounds := r.cfg.Commit
		if t+w >= rounds {
			commitRounds = w
		}
		for _, idx := range est.Ones() {
			rel := idx / nm
			j := idx % nm
			if rel >= commitRounds {
				continue // stays pending; the next window re-decodes it
			}
			r.per.Obs.XorColInto(pred, j)
			// Erase the committed mechanism's trace from detectors the
			// following windows will see.
			abs := t + rel
			for _, d := range r.per.Mech.ColSpan(j) {
				det := abs*m + int(d)
				if det >= (t+commitRounds)*m && det < rounds*m {
					residual.Flip(det)
				}
			}
			if r.straddles(j) && abs+1 < rounds {
				det := (abs+1)*m + int(r.per.Mech.ColSpan(j)[0])
				if det >= (t+commitRounds)*m {
					residual.Flip(det)
				}
			}
		}
	}
	return pred
}

// Result reports a sliding-window memory experiment.
type Result struct {
	Shots, Failures int
	LER             float64
}

// RunMemory samples rounds-deep experiments from the space-time model
// and decodes them with the sliding window.
func (r *Runner) RunMemory(rounds, shots int, seed uint64, workers int) Result {
	if workers < 1 {
		workers = 1
	}
	full := dem.SpaceTime(r.per, rounds)
	var (
		mu    sync.Mutex
		total Result
		wg    sync.WaitGroup
	)
	per := (shots + workers - 1) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(w)+13))
			local := Result{}
			for s := 0; s < per; s++ {
				e := full.Sample(rng)
				syn := full.Syndrome(e)
				actual := full.Observables(e)
				pred := r.DecodeStream(syn, rounds)
				local.Shots++
				if !actual.Equal(pred) {
					local.Failures++
				}
			}
			mu.Lock()
			total.Shots += local.Shots
			total.Failures += local.Failures
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if total.Shots > 0 {
		total.LER = float64(total.Failures) / float64(total.Shots)
	}
	return total
}
