// Package obs is the repo's observability layer: allocation-free decode
// tracing, per-stage latency metrics, and export plumbing (Prometheus
// text, Chrome trace_event JSON, pprof, structured slow-request logs).
//
// The package is stdlib-only and splits cleanly into a hot half and a
// cold half:
//
//   - Recording (the hot half) — Ring.Record, Probe.SpanSince,
//     Counter/Gauge/Histogram observation, DecodeMetrics.Record and
//     SlowLog.Offer — allocates nothing and takes no locks. Span slots
//     are preallocated atomics, histograms are atomic buckets, and slow
//     events travel by value through a bounded channel. Ring.Record,
//     Histogram.Observe, DecodeMetrics.Record and SlowLog.Offer each
//     have an AllocsPerRun test that holds them to zero.
//   - Rendering (the cold half) — WriteTrace, WriteFamilies,
//     the slow-log JSON encoder goroutine, the debug HTTP mux — runs
//     off the decode path and is free to allocate.
//
// Timing uses a single package clock (Tick, nanoseconds since process
// start, monotonic). Decoder hot loops call Probe.Tick/Probe.SpanSince,
// which read the clock only while a sampled decode has the probe
// activated (TestProbeOf), so an untraced decode pays one predictable
// branch per span edge and nothing else.
package obs

import "time"

// epoch anchors the package clock; Span timestamps are nanoseconds
// since epoch, comparable across goroutines via Go's monotonic clock.
var epoch = time.Now()

// Tick returns the current reading of the package clock in nanoseconds
// since process start. It is the one sanctioned wall-clock read on the
// decode path: metrics and span edges at decode boundaries go through
// here rather than calling time.Now directly.
func Tick() int64 {
	return int64(time.Since(epoch))
}

// DurSeconds converts a Tick difference to seconds (for the
// _seconds-suffixed histograms).
func DurSeconds(ns int64) float64 { return float64(ns) / 1e9 }

// Stage identifies one traced pipeline stage. The values cover the
// decoder pipeline (BP rounds, hierarchical levels, fallback
// post-processing), the serving pipeline (queue wait, batch assembly,
// decode, copy-out) and the router's forward.
type Stage uint8

// Traced pipeline stages.
const (
	// StageBPIter is one BP message-passing iteration.
	StageBPIter Stage = iota
	// StageHierBase is Vegapunk's baseline pass (every block solved
	// once against the untouched syndrome).
	StageHierBase
	// StageHierLevel is one outer hierarchical level: a full candidate
	// sweep plus the winner's staged block re-solves.
	StageHierLevel
	// StageFallback is OSD/LSD post-processing after BP non-convergence.
	StageFallback
	// StageBPGDRound is one guided-decimation round (inner BP + freeze).
	StageBPGDRound
	// StageQueueWait spans a request's submit-to-worker-pickup wait.
	StageQueueWait
	// StageBatchAssemble spans a micro-batch's first-request-to-flush
	// assembly window.
	StageBatchAssemble
	// StageDecode spans one Decoder.Decode call at the pool boundary.
	StageDecode
	// StageCopyOut spans the post-decode verify/copy-out work.
	StageCopyOut
	// StageDecodeBatch spans one multi-lane dispatch at the pool
	// boundary (arg carries the lane count).
	StageDecodeBatch
	// StageRouterForward spans one request's router-side forward: from
	// the flush to the backend replica until its response frame arrived
	// (arg carries the replica index). Recorded under the request's
	// trace id, so a merged cluster trace nests the replica's
	// queue/decode/copy-out spans inside it.
	StageRouterForward

	numStages
)

// stageNames are the Chrome trace event names; keep in sync with the
// Stage constants.
var stageNames = [numStages]string{
	"bp_iter",
	"hier_base",
	"hier_level",
	"fallback",
	"bpgd_round",
	"queue_wait",
	"batch_assemble",
	"decode",
	"copy_out",
	"decode_batch",
	"router_forward",
}

// Name returns the stage's trace-event name.
func (s Stage) Name() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one recorded stage interval, decoded from a ring slot.
type Span struct {
	// Stage identifies the pipeline stage.
	Stage Stage
	// ID groups the spans of one sampled decode (0 for batch-level
	// spans not tied to a request).
	ID uint32
	// Arg carries a stage-specific detail: the BP iteration index, the
	// hierarchical level, a batch size, a syndrome weight.
	Arg int32
	// Start and End are Tick readings (nanoseconds since process
	// start).
	Start, End int64
}
