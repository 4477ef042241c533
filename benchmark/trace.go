package main

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// Spans are recorded here, in the harness, around every call it makes
// into a layer; nothing inside the program under test is instrumented.
// A request span is a root; the layer calls made on its behalf are its
// children, and a layer's self time is its span minus its children.

// spanKind names a call site.
type spanKind uint8

const (
	spanRequest spanKind = iota
	spanCoreDecode
	spanServeDecodeBatch
	spanWireQueue
	spanWireFlush
	spanWireRead
	spanCheck
	spanDemSyndrome
	spanDemObservables
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"harness.request",
	"core.Decode",
	"serve.DecodeBatchInto",
	"wire.QueueDecodeTraced",
	"wire.Flush",
	"wire.ReadResultTimed",
	"harness.check",
	"dem.SyndromeInto",
	"dem.ObservablesInto",
}

// maxKeptSpans bounds the spans one client keeps for the trace file. The
// per-kind totals cover every span regardless; only the file is capped,
// so a 150k syn/s segment does not turn into a gigabyte of JSON.
const maxKeptSpans = 1 << 16

type span struct {
	kind       spanKind
	parent     int32 // index into the same client's spans, -1 for a root
	req        uint32
	start, end int64 // ns since traceEpoch
}

var traceEpoch = time.Now()

// tracer is one client goroutine's recorder. A nil *tracer records
// nothing and reads no clock, which is how tracing is switched off.
type tracer struct {
	tid     int
	spans   []span
	dropped int

	count [numSpanKinds]int64
	total [numSpanKinds]int64 // ns
	self  [numSpanKinds]int64 // ns, total minus children

	// The open root: its kind, request id, start, slot in spans (-1 when
	// the keep buffer is full) and the time its children have covered.
	rootKind  spanKind
	rootReq   uint32
	rootStart int64
	rootSlot  int32
	rootKids  int64
	rootOpen  bool
}

func newTracer(tid int) *tracer {
	return &tracer{tid: tid, spans: make([]span, 0, maxKeptSpans)}
}

// now reads the trace clock, or returns 0 without reading it when
// tracing is off.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return clock()
}

func (t *tracer) keep(s span) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// open starts a root span at start (a value of now).
func (t *tracer) open(kind spanKind, req uint32, start int64) {
	if t == nil {
		return
	}
	t.rootKind, t.rootReq, t.rootStart, t.rootKids, t.rootOpen = kind, req, start, 0, true
	t.rootSlot = t.keep(span{kind: kind, parent: -1, req: req, start: start})
}

// call records a finished layer call that began at start as a child of
// the open root.
func (t *tracer) call(kind spanKind, start int64) {
	if t == nil {
		return
	}
	end := clock()
	d := end - start
	t.count[kind]++
	t.total[kind] += d
	t.self[kind] += d
	parent := int32(-1)
	if t.rootOpen {
		t.rootKids += d
		parent = t.rootSlot
	}
	t.keep(span{kind: kind, parent: parent, req: t.rootReq, start: start, end: end})
}

// close ends the open root at end.
func (t *tracer) close(end int64) {
	if t == nil || !t.rootOpen {
		return
	}
	d := end - t.rootStart
	t.count[t.rootKind]++
	t.total[t.rootKind] += d
	t.self[t.rootKind] += d - t.rootKids
	if t.rootSlot >= 0 {
		t.spans[t.rootSlot].end = end
	}
	t.rootOpen = false
}

// writeChromeTrace writes the kept spans of every client as one Chrome
// trace_event document (chrome://tracing, ui.perfetto.dev).
func writeChromeTrace(w io.Writer, workload string, tracers []*tracer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"displayTimeUnit":"ns","traceEvents":[`+"\n")
	fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":1,"args":{"name":%q}}`, workload)
	for _, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(bw, ",\n"+`{"name":%q,"cat":"harness","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"req":%d,"span":%d,"parent":%d}}`,
				spanNames[s.kind], float64(s.start)/1e3, float64(s.end-s.start)/1e3, t.tid, s.req, i, s.parent)
		}
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}
