package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
)

// Chrome trace_event export: the sampled decode spans rendered as
// complete ("ph":"X") events, loadable in chrome://tracing or Perfetto.
// Each recording goroutine's ring becomes one tid, so queue/batch/
// decode stages line up per worker lane. The types are exported so the
// cluster router can parse a replica's trace dump, realign its clock
// and merge it with the router's own spans into one document.

// TraceEvent is one trace_event entry (the subset we emit).
type TraceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	TS   float64   `json:"ts"`  // microseconds
	Dur  float64   `json:"dur"` // microseconds
	PID  int       `json:"pid"`
	TID  int       `json:"tid"`
	Args TraceArgs `json:"args"`
}

// TraceArgs carries the span's decode id and stage-specific argument.
// Label is only set on "M"-phase metadata events (process naming).
type TraceArgs struct {
	ID    uint32 `json:"id"`
	Arg   int32  `json:"arg"`
	Label string `json:"name,omitempty"`
}

// TraceDoc is the object form of the trace_event format.
type TraceDoc struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Events renders the tracer's current spans as trace events under the
// given pid. maxSpans > 0 keeps only the newest maxSpans spans (per
// their start tick); 0 keeps everything currently buffered.
func (t *Tracer) Events(pid, maxSpans int) []TraceEvent {
	perRing := t.snapshotPerRing()
	var events []TraceEvent
	for tid, spans := range perRing {
		for _, s := range spans {
			// Record stores whatever edges its caller passes, so End <
			// Start is representable; Chrome's viewer rejects negative
			// durations, so clamp.
			dur := s.End - s.Start
			if dur < 0 {
				dur = 0
			}
			events = append(events, TraceEvent{
				Name: s.Stage.Name(),
				Cat:  "decode",
				Ph:   "X",
				TS:   float64(s.Start) / 1e3,
				Dur:  float64(dur) / 1e3,
				PID:  pid,
				TID:  tid,
				Args: TraceArgs{ID: s.ID, Arg: s.Arg},
			})
		}
	}
	SortTraceEvents(events)
	if maxSpans > 0 && len(events) > maxSpans {
		events = events[len(events)-maxSpans:]
	}
	return events
}

// SortTraceEvents orders events by start timestamp (metadata events,
// which carry TS 0, sort first).
func SortTraceEvents(events []TraceEvent) {
	sort.Slice(events, func(i, j int) bool { return events[i].TS < events[j].TS })
}

// ProcessNameEvent builds the "M"-phase metadata event that names pid
// in the trace viewer's process list.
func ProcessNameEvent(pid int, name string) TraceEvent {
	return TraceEvent{Name: "process_name", Ph: "M", PID: pid, Args: TraceArgs{Label: name}}
}

// WriteTraceDoc encodes events as one trace_event JSON document.
func WriteTraceDoc(w io.Writer, events []TraceEvent) error {
	return json.NewEncoder(w).Encode(TraceDoc{TraceEvents: events, DisplayTimeUnit: "ns"})
}

// WriteTrace renders the tracer's current spans as Chrome trace_event
// JSON. maxSpans > 0 keeps only the newest maxSpans spans (per their
// start tick); 0 writes everything currently buffered.
func (t *Tracer) WriteTrace(w io.Writer, maxSpans int) error {
	return WriteTraceDoc(w, t.Events(1, maxSpans))
}

// TraceHandler serves the tracer's buffered spans as Chrome trace JSON:
// GET /debug/decodetrace?n=500 bounds the span count.
func TraceHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, ok := ParseSpanCount(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := t.WriteTrace(w, n); err != nil {
			// Headers are gone; nothing useful left to do.
			return
		}
	})
}

// ParseSpanCount reads the ?n= span bound shared by the trace
// endpoints, answering 400 itself on a malformed value.
func ParseSpanCount(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query().Get("n")
	if q == "" {
		return 0, true
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 0 {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintf(w, "bad n %q\n", q)
		return 0, false
	}
	return v, true
}

// DebugMux builds the diagnostic mux served on a daemon's -debug-addr:
// the stdlib pprof endpoints plus the decode-trace dump. Keep this
// listener on localhost or behind auth — profiles expose internals.
func DebugMux(t *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if t != nil {
		mux.Handle("/debug/decodetrace", TraceHandler(t))
	}
	return mux
}
