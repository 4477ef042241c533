package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// The structured slow-request log: decodes whose end-to-end service
// latency crosses a threshold are reported as one JSON object per line,
// with the per-stage breakdown that end-to-end wall time hides. The hot
// path hands a fixed-size event struct to a bounded channel and never
// blocks (events drop, counted, when the logger falls behind); a single
// goroutine does the encoding and writing.

// SlowEvent is one slow decode. All fields are scalars or references to
// long-lived strings, so passing it by value allocates nothing. The
// JSON tags name the log line's keys, in field order.
type SlowEvent struct {
	// Seq numbers emitted events (assigned by Offer).
	Seq uint64 `json:"seq"`
	// ID is the decode's request id (the tracer id lattice).
	ID uint64 `json:"id"`
	// Model and Decoder identify the serving registration.
	Model   string `json:"model"`
	Decoder string `json:"decoder"`
	// SyndromeWeight is the request syndrome's Hamming weight.
	SyndromeWeight int `json:"syndrome_weight"`
	// Per-stage breakdown plus the end-to-end total, in nanoseconds.
	QueueWaitNs int64 `json:"queue_wait_ns"`
	DecodeNs    int64 `json:"decode_ns"`
	CopyOutNs   int64 `json:"copy_out_ns"`
	TotalNs     int64 `json:"total_ns"`
	// BPIters / HierLevels mirror the decoder's Stats.
	BPIters    int `json:"bp_iters"`
	HierLevels int `json:"hier_levels"`
	// Satisfied reports whether the correction reproduced the syndrome.
	Satisfied bool `json:"satisfied"`
}

// SlowLog is the non-blocking slow-decode reporter. Offer is safe for
// concurrent use and allocation-free; a single goroutine drains the
// channel, encodes and writes.
type SlowLog struct {
	ch      chan SlowEvent
	seq     atomic.Uint64
	dropped atomic.Uint64

	done chan struct{}
	once sync.Once
}

// slowLogBuffer bounds the events queued for the writer: room for a
// burst of slow requests while one write is in progress, past which
// Offer drops and counts rather than block a decode.
const slowLogBuffer = 256

// NewSlowLog starts a slow log writing JSON lines to w, with up to
// slowLogBuffer events queued. Close flushes and stops the writer
// goroutine.
func NewSlowLog(w io.Writer) *SlowLog {
	l := &SlowLog{
		ch:   make(chan SlowEvent, slowLogBuffer),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		for ev := range l.ch {
			_ = enc.Encode(&ev) // best-effort: a failed diagnostic write must not stop the log
		}
	}()
	return l
}

// Offer enqueues an event without blocking; when the writer is behind
// and the buffer is full the event is dropped and counted. Assigns
// ev.Seq. Allocation-free.
func (l *SlowLog) Offer(ev SlowEvent) {
	ev.Seq = l.seq.Add(1)
	select {
	case l.ch <- ev:
	default:
		l.dropped.Add(1)
	}
}

// Dropped counts events lost to a full buffer.
func (l *SlowLog) Dropped() uint64 { return l.dropped.Load() }

// Close stops accepting events and waits for the writer to flush.
func (l *SlowLog) Close() {
	l.once.Do(func() { close(l.ch) })
	<-l.done
}
