package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"vegapunk/internal/obs"
)

// Merged cluster trace: GET /debug/clustertrace?n= renders the
// router's own forward spans together with every replica's decode
// spans (fetched live from each replica's /debug/decodetrace) as one
// Chrome trace_event document. The router is pid 1; replica i is pid
// i+2. Replica timestamps are in the replica's own obs clock, so each
// replica's events are realigned into the router's clock before the
// merge by the wire-derived offset estimate (replica.clockOffset, the
// running max of reported-server-tick minus router-receive-tick across
// relayed responses). Each observation undershoots the true offset by
// that response's one-way delay, so realigned replica spans shift
// slightly late — strictly inside the router span that forwarded them,
// never spuriously before it. A replica the router has relayed no timed
// result from has no offset yet: it is not fetched, and like an
// unreachable one it shows as a named gap in the process list.
//
// A trace id travels with every forwarded request, so one sampled
// request shows up as a router forward span (pid 1) containing the
// replica's queue/decode/copy-out spans (pid i+2) under the same
// args.id.

// traceFetchTimeout bounds one replica trace fetch.
const traceFetchTimeout = 5 * time.Second

// clusterTrace serves the merged trace document.
func (r *Router) clusterTrace(w http.ResponseWriter, req *http.Request) {
	n, ok := obs.ParseSpanCount(w, req)
	if !ok {
		return
	}
	events := r.tracer.Events(1, n)
	events = append(events, obs.ProcessNameEvent(1, "router"))
	for _, rep := range r.replicas {
		if rep.traceURL == "" {
			continue
		}
		// A replica that cannot be aligned or reached must not sink the
		// whole merge; name the gap so the viewer shows which process
		// is missing.
		name := "replica " + rep.addr
		var revs []obs.TraceEvent
		if !rep.offsetKnown.Load() {
			name += " (clock offset unknown)"
		} else if evs, err := r.fetchReplicaTrace(req, rep, n); err != nil {
			name += " (trace unavailable)"
		} else {
			revs = evs
		}
		events = append(events, obs.ProcessNameEvent(rep.idx+2, name))
		events = append(events, revs...)
	}
	obs.SortTraceEvents(events)
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteTraceDoc(w, events) // headers are gone on error; nothing left to do
}

// fetchReplicaTrace pulls one replica's decode trace and realigns it
// into the router's clock under the replica's pid.
func (r *Router) fetchReplicaTrace(req *http.Request, rep *replica, n int) ([]obs.TraceEvent, error) {
	url := strings.TrimRight(rep.traceURL, "/") + "/debug/decodetrace"
	if n > 0 {
		url = fmt.Sprintf("%s?n=%d", url, n)
	}
	hreq, err := http.NewRequestWithContext(req.Context(), http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: traceFetchTimeout}
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }() // best-effort: response fully decoded below
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: trace fetch %s: %s", url, resp.Status)
	}
	var doc obs.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}

	// clockOffset is replicaClock − routerClock, in ns.
	offUs := float64(rep.clockOffset.Load()) / 1e3
	out := make([]obs.TraceEvent, 0, len(doc.TraceEvents))
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue // re-named above under the replica's merged pid
		}
		ev.PID = rep.idx + 2
		ev.TS -= offUs
		out = append(out, ev)
	}
	return out, nil
}
