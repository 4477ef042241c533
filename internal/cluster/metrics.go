package cluster

import (
	"fmt"
	"io"
	"net/http"

	"vegapunk/internal/obs"
)

// replicaLabels renders a replica's label set.
func replicaLabels(rep *replica) string { return fmt.Sprintf("replica=%q", rep.addr) }

// repCounterFam renders one per-replica counter family.
func (r *Router) repCounterFam(w io.Writer, name, help string, get func(*replica) uint64) {
	obs.WriteHeader(w, name, help, "counter")
	for _, rep := range r.replicas {
		obs.WriteCounterSample(w, name, replicaLabels(rep), get(rep))
	}
}

// repGaugeFam renders one per-replica gauge family.
func (r *Router) repGaugeFam(w io.Writer, name, help string, get func(*replica) int64) {
	obs.WriteHeader(w, name, help, "gauge")
	for _, rep := range r.replicas {
		obs.WriteGaugeSample(w, name, replicaLabels(rep), get(rep))
	}
}

// repHistFam renders one per-replica histogram family.
func (r *Router) repHistFam(w io.Writer, name, help string, get func(*replica) *obs.Histogram) {
	obs.WriteHeader(w, name, help, "histogram")
	for _, rep := range r.replicas {
		get(rep).WriteProm(w, name, replicaLabels(rep))
	}
}

// writeMetrics renders the router's exposition (Prometheus text
// format, obs.LintExposition-clean).
func (r *Router) writeMetrics(w io.Writer) {
	obs.WriteHeader(w, "vegapunk_router_connections_total", "Client wire connections accepted.", "counter")
	obs.WriteCounterSample(w, "vegapunk_router_connections_total", "", r.wire.Accepted())
	obs.WriteHeader(w, "vegapunk_router_open_connections", "Client wire connections currently open.", "gauge")
	obs.WriteGaugeSample(w, "vegapunk_router_open_connections", "", r.wire.Open())
	obs.WriteHeader(w, "vegapunk_router_retries_total", "Requests re-sent to a sibling replica after a shed, overload or transport failure.", "counter")
	obs.WriteCounterSample(w, "vegapunk_router_retries_total", "", r.retries.Load())
	obs.WriteHeader(w, "vegapunk_router_no_replica_total", "Requests failed because no usable replica remained.", "counter")
	obs.WriteCounterSample(w, "vegapunk_router_no_replica_total", "", r.noReplica.Load())
	obs.WriteHeader(w, "vegapunk_router_protocol_errors_total", "Malformed or out-of-protocol frames on either side.", "counter")
	obs.WriteCounterSample(w, "vegapunk_router_protocol_errors_total", "", r.wire.ProtocolErrors()+r.protoErrors.Load())
	obs.WriteHeader(w, "vegapunk_router_draining", "Whether the router is draining (1) or serving (0).", "gauge")
	drain := int64(0)
	if r.wire.Draining() {
		drain = 1
	}
	obs.WriteGaugeSample(w, "vegapunk_router_draining", "", drain)
	obs.WriteHeader(w, "vegapunk_router_hedges_total", "Batches hedged onto the sibling replica after the primary exceeded the hedge deadline.", "counter")
	obs.WriteCounterSample(w, "vegapunk_router_hedges_total", "", r.hedges.Load())
	obs.WriteHeader(w, "vegapunk_router_hedge_wins_total", "Lanes completed by the hedge target after loser cancellation.", "counter")
	obs.WriteCounterSample(w, "vegapunk_router_hedge_wins_total", "", r.hedgeWins.Load())
	obs.WriteHeader(w, "vegapunk_router_reconnects_total", "Backend connections re-established after a transport failure or hedge abandonment.", "counter")
	obs.WriteCounterSample(w, "vegapunk_router_reconnects_total", "", r.reconnects.Load())
	obs.WriteHeader(w, "vegapunk_router_admission_rejected_total", "Lanes refused by admission control because the in-flight bound was reached.", "counter")
	obs.WriteCounterSample(w, "vegapunk_router_admission_rejected_total", "", r.admissionRejected.Load())
	obs.WriteHeader(w, "vegapunk_router_inflight_lanes", "Lanes currently being forwarded (admission-control occupancy).", "gauge")
	obs.WriteGaugeSample(w, "vegapunk_router_inflight_lanes", "", r.inflightLanes.Load())

	r.repGaugeFam(w, "vegapunk_router_replica_health_state", "Replica health as routed (0 down, 1 draining, 2 healthy).",
		func(rep *replica) int64 { return int64(rep.state.Load()) })
	r.repCounterFam(w, "vegapunk_router_replica_decodes_total", "Decode responses relayed from this replica.",
		func(rep *replica) uint64 { return rep.decodes.Load() })
	r.repCounterFam(w, "vegapunk_router_replica_failovers_total", "Times this replica was demoted to down after a failure.",
		func(rep *replica) uint64 { return rep.failovers.Load() })
	r.repCounterFam(w, "vegapunk_router_replica_dial_errors_total", "Failed dials to this replica.",
		func(rep *replica) uint64 { return rep.dialErrors.Load() })
	r.repGaugeFam(w, "vegapunk_router_replica_open_connections", "Backend wire connections open to this replica.",
		func(rep *replica) int64 { return rep.open.Load() })
	r.repCounterFam(w, "vegapunk_router_retry_budget_exhausted_total", "Retries suppressed because this replica's retry budget was empty.",
		func(rep *replica) uint64 { return rep.retryExhausted.Load() })
	obs.WriteHeader(w, "vegapunk_router_retry_budget_tokens", "Retry tokens currently available for failures of this replica.", "gauge")
	budgetNow := obs.Tick()
	for _, rep := range r.replicas {
		obs.WriteFloatGauge(w, "vegapunk_router_retry_budget_tokens", replicaLabels(rep), rep.budget.level(budgetNow))
	}
	r.repHistFam(w, "vegapunk_router_replica_network_seconds", "Network share of relayed decode latency: router flush-to-response wall clock minus the replica-reported decode-path time.",
		func(rep *replica) *obs.Histogram { return rep.netSeconds })
	r.repHistFam(w, "vegapunk_router_replica_server_seconds", "Replica-reported decode-path time (queue wait + decode + copy out) of relayed decodes.",
		func(rep *replica) *obs.Histogram { return rep.serverSeconds })
	obs.WriteHeader(w, "vegapunk_router_replica_clock_offset_seconds", "Estimated replica clock minus router clock (running max of reported-tick minus receive-tick; 0 until a timed response arrives).", "gauge")
	for _, rep := range r.replicas {
		off := int64(0)
		if rep.offsetKnown.Load() {
			off = rep.clockOffset.Load()
		}
		obs.WriteFloatGauge(w, "vegapunk_router_replica_clock_offset_seconds", replicaLabels(rep), obs.DurSeconds(off))
	}

	burn, seen := r.slo.burn(int64(r.cfg.SLOTarget), r.cfg.SLOBudget)
	obs.WriteHeader(w, "vegapunk_router_slo_target_seconds", "Per-request latency target the rolling SLO window scores against.", "gauge")
	obs.WriteFloatGauge(w, "vegapunk_router_slo_target_seconds", "", r.cfg.SLOTarget.Seconds())
	obs.WriteHeader(w, "vegapunk_router_slo_window_requests", "Relayed requests currently held in the rolling SLO window.", "gauge")
	obs.WriteGaugeSample(w, "vegapunk_router_slo_window_requests", "", int64(seen))
	obs.WriteHeader(w, "vegapunk_router_slo_burn", "Rolling-window SLO burn rate: fraction of requests over target divided by the error budget. Sustained > 1 burns the budget faster than allowed.", "gauge")
	obs.WriteFloatGauge(w, "vegapunk_router_slo_burn", "", burn)
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
