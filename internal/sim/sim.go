// Package sim is the Monte-Carlo evaluation harness: quantum-memory
// experiments producing logical error rates (with Wilson confidence
// intervals and the paper's per-round conversion, Eq. 16), accuracy
// threshold fits (Eq. 17), and wall-clock latency measurement.
package sim

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// LERResult reports a memory experiment.
type LERResult struct {
	Shots, Failures int
	Rounds          int
	// LER is the overall logical error rate P_L.
	LER float64
	// PerRound is p_L = 1 - (1-P_L)^(1/rounds), the paper's Eq. 16.
	PerRound float64
	// CILow, CIHigh bound P_L at 95% (Wilson).
	CILow, CIHigh float64
	// MeanBPIters and MaxBPIters aggregate decoder iteration counts for
	// the latency models; MeanOuter/MeanCandidates do the same for
	// Vegapunk traces.
	MeanBPIters, MaxBPIters   float64
	MeanOuter, MeanCandidates float64
	MaxInnerIters             int
}

// MemoryConfig parameterizes a memory experiment.
type MemoryConfig struct {
	// Rounds of syndrome extraction per shot (the paper uses the code
	// distance d).
	Rounds int
	// Shots is the number of independent memory experiments.
	Shots int
	// MaxFailures stops early once this many logical failures are seen
	// (0 = run all shots). Each worker stops at its own share,
	// ⌈MaxFailures/Workers⌉, checked every 32 shots, so the result does
	// not depend on how the workers are scheduled.
	MaxFailures int
	// Workers bounds the parallel shot workers (0 = 1; each worker gets
	// its own decoder from the factory).
	Workers int
	// Seed drives the reproducible PCG randomness.
	Seed uint64
	// Tracer, when set, samples decodes into per-worker span rings for
	// Chrome trace export. It does not change decode results.
	Tracer *obs.Tracer
}

// RunMemory executes a multi-round quantum memory experiment: each round
// samples fresh mechanisms, decodes that round's syndrome, and
// accumulates predicted vs. actual observable flips; a shot fails
// logically when they disagree after the final round.
func RunMemory(model *dem.Model, factory core.Factory, cfg MemoryConfig) LERResult {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	type tally struct {
		shots, fails int
		sumBP, maxBP int
		sumOuter     int
		sumCand      int
		maxInner     int
	}
	var (
		mu     sync.Mutex
		global tally
	)
	var wg sync.WaitGroup
	perWorker := (cfg.Shots + cfg.Workers - 1) / cfg.Workers
	failShare := (cfg.MaxFailures + cfg.Workers - 1) / cfg.Workers
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dec := factory()
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(w)+1))
			probe := obs.ProbeOf(dec)
			var ring *obs.Ring
			if cfg.Tracer != nil {
				ring = cfg.Tracer.Ring()
			}
			local := tally{}
			// Worker-local round scratch, reused across every shot.
			mech := gf2.NewVec(model.NumMech())
			syn := gf2.NewVec(model.NumDet)
			obs := gf2.NewVec(model.NumObs)
			actual := gf2.NewVec(model.NumObs)
			predicted := gf2.NewVec(model.NumObs)
			for shot := 0; shot < perWorker; shot++ {
				if shot%32 == 0 && cfg.MaxFailures > 0 && local.fails >= failShare {
					break
				}
				actual.Zero()
				predicted.Zero()
				for round := 0; round < cfg.Rounds; round++ {
					model.SampleInto(mech, rng)
					model.SyndromeInto(syn, mech)
					model.ObservablesInto(obs, mech)
					actual.Xor(obs)
					// Ownership audit (see internal/README.md): est is
					// decoder-owned and consumed by the MulVecInto below
					// before the next Decode on this worker's instance;
					// it never escapes the goroutine, so no gf2.CopyVec
					// is needed here.
					sampled := false
					if cfg.Tracer != nil {
						if id := cfg.Tracer.NextID(); cfg.Tracer.ShouldSample(id) {
							probe.Activate(ring, id)
							sampled = true
						}
					}
					est, stats := dec.Decode(syn)
					if sampled {
						probe.Deactivate()
					}
					model.ObservablesInto(obs, est)
					predicted.Xor(obs)
					local.sumBP += stats.BPIters
					if stats.BPIters > local.maxBP {
						local.maxBP = stats.BPIters
					}
					local.sumOuter += stats.Hier.OuterIters
					local.sumCand += stats.Hier.Candidates
					if stats.Hier.MaxInnerIters > local.maxInner {
						local.maxInner = stats.Hier.MaxInnerIters
					}
				}
				local.shots++
				if !actual.Equal(predicted) {
					local.fails++
				}
			}
			mu.Lock()
			global.shots += local.shots
			global.fails += local.fails
			global.sumBP += local.sumBP
			global.sumOuter += local.sumOuter
			global.sumCand += local.sumCand
			if local.maxBP > global.maxBP {
				global.maxBP = local.maxBP
			}
			if local.maxInner > global.maxInner {
				global.maxInner = local.maxInner
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	res := LERResult{
		Shots:    global.shots,
		Failures: global.fails,
		Rounds:   cfg.Rounds,
	}
	if global.shots > 0 {
		res.LER = float64(global.fails) / float64(global.shots)
		res.CILow, res.CIHigh = Wilson(global.fails, global.shots)
		decodes := float64(global.shots * cfg.Rounds)
		res.MeanBPIters = float64(global.sumBP) / decodes
		res.MaxBPIters = float64(global.maxBP)
		res.MeanOuter = float64(global.sumOuter) / decodes
		res.MeanCandidates = float64(global.sumCand) / decodes
		res.MaxInnerIters = global.maxInner
	}
	res.PerRound = PerRoundLER(res.LER, cfg.Rounds)
	return res
}

// PerRoundLER converts an overall logical error rate over r rounds to a
// per-round rate (Eq. 16).
func PerRoundLER(pl float64, rounds int) float64 {
	if pl >= 1 {
		return 1
	}
	return 1 - math.Pow(1-pl, 1/float64(rounds))
}

// Wilson returns the 95% Wilson score interval for k successes in n
// trials.
func Wilson(k, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// LatencyResult reports wall-clock decode timing.
type LatencyResult struct {
	Shots               int
	Mean, Std, Max, P99 time.Duration
}

// MeasureLatency times decoder calls on syndromes sampled from the
// model. This is the "CPU" latency of Table 2 (our host, not the
// paper's EPYC — orderings transfer, absolute numbers do not).
func MeasureLatency(model *dem.Model, dec core.Decoder, shots int, seed uint64) LatencyResult {
	rng := rand.New(rand.NewPCG(seed, 99))
	durs := make([]time.Duration, 0, shots)
	e := gf2.NewVec(model.NumMech())
	s := gf2.NewVec(model.NumDet)
	for i := 0; i < shots; i++ {
		model.SampleInto(e, rng)
		model.SyndromeInto(s, e)
		t0 := time.Now()
		dec.Decode(s)
		durs = append(durs, time.Since(t0))
	}
	return summarize(durs)
}

func summarize(durs []time.Duration) LatencyResult {
	if len(durs) == 0 {
		return LatencyResult{}
	}
	var sum, maxDur time.Duration
	for _, d := range durs {
		sum += d
		if d > maxDur {
			maxDur = d
		}
	}
	mean := sum / time.Duration(len(durs))
	var varAcc float64
	for _, d := range durs {
		diff := float64(d - mean)
		varAcc += diff * diff
	}
	std := time.Duration(math.Sqrt(varAcc / float64(len(durs))))
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p99 := sorted[len(sorted)*99/100]
	return LatencyResult{Shots: len(durs), Mean: mean, Std: std, Max: maxDur, P99: p99}
}
