package obs

import (
	"io"
	"strconv"
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
// long-lived strings, so passing it by value allocates nothing.
type SlowEvent struct {
	// Seq numbers emitted events (assigned by Offer).
	Seq uint64
	// ID is the decode's request id (the tracer id lattice).
	ID uint64
	// Model and Decoder identify the serving registration.
	Model, Decoder string
	// SyndromeWeight is the request syndrome's Hamming weight.
	SyndromeWeight int
	// Per-stage breakdown plus the end-to-end total, in nanoseconds.
	QueueWaitNs, DecodeNs, CopyOutNs, TotalNs int64
	// BPIters / HierLevels mirror the decoder's Stats.
	BPIters, HierLevels int
	// Satisfied reports whether the correction reproduced the syndrome.
	Satisfied bool
}

// AppendJSON appends the event as a single JSON object (no trailing
// newline) and returns the extended buffer. Hand-rolled so the encoder
// is fuzzable and dependency-free; strings are escaped per RFC 8259.
func (e *SlowEvent) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"id":`...)
	dst = strconv.AppendUint(dst, e.ID, 10)
	dst = append(dst, `,"model":`...)
	dst = appendJSONString(dst, e.Model)
	dst = append(dst, `,"decoder":`...)
	dst = appendJSONString(dst, e.Decoder)
	dst = append(dst, `,"syndrome_weight":`...)
	dst = strconv.AppendInt(dst, int64(e.SyndromeWeight), 10)
	dst = append(dst, `,"queue_wait_ns":`...)
	dst = strconv.AppendInt(dst, e.QueueWaitNs, 10)
	dst = append(dst, `,"decode_ns":`...)
	dst = strconv.AppendInt(dst, e.DecodeNs, 10)
	dst = append(dst, `,"copy_out_ns":`...)
	dst = strconv.AppendInt(dst, e.CopyOutNs, 10)
	dst = append(dst, `,"total_ns":`...)
	dst = strconv.AppendInt(dst, e.TotalNs, 10)
	dst = append(dst, `,"bp_iters":`...)
	dst = strconv.AppendInt(dst, int64(e.BPIters), 10)
	dst = append(dst, `,"hier_levels":`...)
	dst = strconv.AppendInt(dst, int64(e.HierLevels), 10)
	dst = append(dst, `,"satisfied":`...)
	dst = strconv.AppendBool(dst, e.Satisfied)
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted, escaped JSON string. Control
// characters, quotes and backslashes are escaped; invalid UTF-8 bytes
// are passed through byte-wise exactly as encoding/json does for raw
// bytes below 0x80 and escaped as � is NOT attempted — model keys
// are ASCII slugs, but the encoder must stay safe for arbitrary input.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < 0x20 || c == 0x7f:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
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
		buf := make([]byte, 0, 512)
		for ev := range l.ch {
			buf = ev.AppendJSON(buf[:0])
			buf = append(buf, '\n')
			_, _ = w.Write(buf) // best-effort: a failed diagnostic write must not stop the log
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
