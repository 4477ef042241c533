package cluster

import (
	"fmt"
	"io"
	"net/http"

	"vegapunk/internal/obs"
)

// routerFamilies is the router-wide half of the /metrics page,
// unlabelled.
var routerFamilies = []obs.Family[*Router]{
	{Name: "vegapunk_router_connections_total", Help: "Client wire connections accepted.",
		Counter: func(r *Router) uint64 { return r.wire.Accepted() }},
	{Name: "vegapunk_router_open_connections", Help: "Client wire connections currently open.",
		Gauge: func(r *Router) int64 { return r.wire.Open() }},
	{Name: "vegapunk_router_retries_total", Help: "Requests re-sent to a sibling replica after an overload, decoder fault or transport failure.",
		Counter: func(r *Router) uint64 { return r.retries.Load() }},
	{Name: "vegapunk_router_no_replica_total", Help: "Requests failed because no usable replica remained.",
		Counter: func(r *Router) uint64 { return r.noReplica.Load() }},
	{Name: "vegapunk_router_protocol_errors_total", Help: "Malformed or out-of-protocol frames on either side.",
		Counter: func(r *Router) uint64 { return r.wire.ProtocolErrors() + r.protoErrors.Load() }},
	{Name: "vegapunk_router_draining", Help: "Whether the router is draining (1) or serving (0).",
		Gauge: func(r *Router) int64 {
			if r.wire.Draining() {
				return 1
			}
			return 0
		}},
	{Name: "vegapunk_router_hedges_total", Help: "Batches hedged onto the sibling replica after the primary exceeded the hedge deadline.",
		Counter: func(r *Router) uint64 { return r.hedges.Load() }},
	{Name: "vegapunk_router_hedge_wins_total", Help: "Lanes completed by the hedge target after loser cancellation.",
		Counter: func(r *Router) uint64 { return r.hedgeWins.Load() }},
	{Name: "vegapunk_router_reconnects_total", Help: "Backend connections re-established after a transport failure or hedge abandonment.",
		Counter: func(r *Router) uint64 { return r.reconnects.Load() }},
	// Deprecated: always 0, since the router has no admission control
	// (each client connection forwards its own run). Kept only because
	// benchmark/ledger.go fails a traced router run without it.
	{Name: "vegapunk_router_admission_rejected_total", Help: "Deprecated, always 0: the router refuses no lanes for capacity.",
		Counter: func(*Router) uint64 { return 0 }},
}

// replicaFamilies is the per-replica half of the /metrics page, one
// sample per configured replica.
var replicaFamilies = []obs.Family[*replica]{
	{Name: "vegapunk_router_replica_health_state", Help: "Replica health as routed (0 down, 1 draining, 2 healthy).",
		Gauge: func(rep *replica) int64 { return int64(rep.state.Load()) }},
	{Name: "vegapunk_router_replica_decodes_total", Help: "Decode responses relayed from this replica.",
		Counter: func(rep *replica) uint64 { return rep.decodes.Load() }},
	{Name: "vegapunk_router_replica_failovers_total", Help: "Times this replica was demoted to down after a failure.",
		Counter: func(rep *replica) uint64 { return rep.failovers.Load() }},
	{Name: "vegapunk_router_replica_dial_errors_total", Help: "Failed dials to this replica.",
		Counter: func(rep *replica) uint64 { return rep.dialErrors.Load() }},
	{Name: "vegapunk_router_replica_open_connections", Help: "Backend wire connections open to this replica.",
		Gauge: func(rep *replica) int64 { return rep.open.Load() }},
	{Name: "vegapunk_router_replica_network_seconds", Help: "Network share of relayed decode latency: router flush-to-response wall clock minus the replica-reported decode-path time.",
		Hist: func(rep *replica) *obs.Histogram { return rep.netSeconds }},
	{Name: "vegapunk_router_replica_server_seconds", Help: "Replica-reported decode-path time (queue wait + decode + copy out) of relayed decodes.",
		Hist: func(rep *replica) *obs.Histogram { return rep.serverSeconds }},
}

// writeMetrics renders the router's exposition (Prometheus text
// format; obs.CheckFamilies lints both tables).
func (r *Router) writeMetrics(w io.Writer) {
	obs.WriteFamilies(w, routerFamilies, []*Router{r}, nil)
	labels := make([]string, len(r.replicas))
	for i, rep := range r.replicas {
		labels[i] = fmt.Sprintf("replica=%q", rep.addr)
	}
	obs.WriteFamilies(w, replicaFamilies, r.replicas, labels)
}

// Handler returns the admin surface: /metrics, /healthz and the merged
// cluster trace.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.writeMetrics(w)
	})
	mux.HandleFunc("GET /debug/clustertrace", r.clusterTrace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		usable := 0
		for _, rep := range r.replicas {
			if State(rep.state.Load()) != StateDown {
				usable++
			}
		}
		if usable == 0 || r.wire.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, "usable_replicas %d/%d\n", usable, len(r.replicas))
	})
	return mux
}
