// Package serve turns the decoder library into an online decoding
// service: the workload shape of the paper's real-time setting, where
// syndromes stream in under a latency budget instead of being replayed
// offline.
//
// The package composes four pieces:
//
//   - Pool: the counters of a model's decoder instances. Nothing is
//     lent: each of PoolSize dispatch workers owns one single-goroutine,
//     scratch-owning decoder (see internal/README.md "owned until next
//     Decode"), builds it on its first dispatch, keeps it across
//     dispatches and replaces it after a fault; every decoder-owned
//     result is copied out before the worker's next dispatch.
//   - Service: a micro-batching queue in front of the workers. Requests
//     accumulate until MaxBatch or MaxWait, then the whole batch goes to
//     one long-lived worker (the owner of one decoder), which loops the
//     decoder over it; a single request is a batch of one. Batching is
//     the service's dispatch, the same for every decoder: what it saves
//     is the per-dispatch cost, and no decoder is asked for more than
//     core.Decoder. The worker decodes on its own goroutine, from lanes
//     it owns, under a per-worker watchdog timer: a service runs
//     1 + PoolSize goroutines, and a hung decoder costs the one it is
//     stuck on (see worker.go). A fault fails only its own dispatch:
//     the instance is quarantined and rebuilt, and the service never
//     refuses work because of earlier faults (routing around a replica
//     that keeps faulting is internal/cluster's job, where a sibling
//     exists). The steady state (pooled requests, recycled batches,
//     reused scratch) is allocation-free on top of the decode itself.
//   - Server: the model registry behind the binary wire protocol
//     (ServeWire, internal/wire), the only way a decode arrives, with
//     graceful drain; a stdlib net/http listener beside it answers GET
//     /v1/models, /healthz and /debug/decodetrace.
//   - Metrics: atomic counters/gauges/histograms with zero allocations
//     on the observation path, rendered in Prometheus text format at
//     GET /metrics from two obs.Family tables (metrics.go).
package serve

import (
	"runtime"
	"strconv"
	"strings"
	"time"

	"vegapunk/internal/obs"
)

// Config shapes the serving subsystem. The zero value is usable;
// unset fields take the defaults documented per field.
type Config struct {
	// MaxBatch flushes the micro-batching queue once this many
	// syndromes are pending (default 16), for every decoder. One
	// dispatch is up to MaxBatch decodes in a row on one worker; see
	// HangTimeout.
	MaxBatch int
	// MaxWait bounds how long a short batch may wait for more
	// syndromes (default 200µs, subject to OS timer granularity). The
	// batcher only waits at all while every worker is busy — with idle
	// dispatch capacity it flushes immediately, so MaxWait is a
	// saturation-regime deadline, not a floor on light-load latency.
	MaxWait time.Duration
	// PoolSize is the number of long-lived dispatch workers per model,
	// each owning one decoder instance, so it bounds the live instances
	// (default runtime.GOMAXPROCS(0)).
	PoolSize int
	// Deprecated: has no effect; decodes arrive only over the wire
	// protocol, which has no admission bound of its own. Kept only
	// because benchmark/spec.go still sets it.
	MaxInFlight int
	// HangTimeout is how long one dispatch — up to MaxBatch decodes in
	// a row — may run before the worker's watchdog declares the decoder
	// hung, quarantines it, fails the dispatch's requests with
	// ErrDecoderFault and replaces the worker stuck inside the call
	// (default 1s). Size it for MaxBatch worst-case decodes: the slowest
	// served family, BP+OSD-CS(7), measures at most 3.9 ms for one decode
	// on BB [[144,12,12]], 0.25 s at 64 lanes.
	HangTimeout time.Duration
	// Tracer, when set, samples decode requests into per-goroutine span
	// rings (GET /debug/decodetrace). Nil disables span recording.
	Tracer *obs.Tracer
	// SlowLog, when set, receives a structured JSON-lines event for
	// every request slower end-to-end than SlowThreshold.
	SlowLog *obs.SlowLog
	// SlowThreshold is the slow-request latency bar (default 10ms; only
	// meaningful with SlowLog set).
	SlowThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 200 * time.Microsecond
	}
	if c.PoolSize <= 0 {
		c.PoolSize = runtime.GOMAXPROCS(0)
	}
	if c.HangTimeout <= 0 {
		c.HangTimeout = time.Second
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 10 * time.Millisecond
	}
	return c
}

// ModelKey derives the canonical registry key for a (code, decoder,
// physical error rate) triple, e.g.
//
//	ModelKey("BB [[72,12,6]]", "BP", 0.001) == "bb-72-12-6/bp/p0.001"
//
// cmd/vegapunkd registers models under these keys and cmd/decodeload
// derives the same key client-side.
func ModelKey(codeName, decoderName string, p float64) string {
	return slug(codeName) + "/" + slug(decoderName) + "/p" + strconv.FormatFloat(p, 'g', -1, 64)
}

// slug lowercases s and collapses every run of non-alphanumeric
// characters into a single '-'.
func slug(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	dash := false
	for _, r := range strings.ToLower(s) {
		alnum := r >= 'a' && r <= 'z' || r >= '0' && r <= '9'
		switch {
		case alnum:
			if dash && sb.Len() > 0 {
				sb.WriteByte('-')
			}
			dash = false
			sb.WriteRune(r)
		default:
			dash = true
		}
	}
	return sb.String()
}
