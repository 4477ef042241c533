package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"vegapunk/internal/serve"
)

// path is how a workload's requests reach the decoder.
type path int

const (
	// pathDirect calls core.Decoder.Decode from the client goroutine.
	pathDirect path = iota
	// pathServe calls serve.Service.DecodeBatchInto in-process.
	pathServe
	// pathWire speaks the binary protocol to one serve.Server on loopback.
	pathWire
	// pathRouter speaks it to a cluster.Router in front of two replicas.
	pathRouter
)

// spec fixes everything about a workload except the seed. The numbers
// are the ones ISSUE 11 sized on the 2-vCPU reference host; they are
// constants so that two artifacts of the same workload are comparable.
type spec struct {
	name string
	// index selects the workload's PCG stream: pool = PCG(seed, index).
	index uint64
	// bb is the code's position in code.BBRegistry.
	bb int
	// circuit selects dem.CircuitLevel over dem.CodeCapacity.
	circuit bool
	p       float64
	// vegapunk selects decoupling + core.NewVegapunkFrom over core.NewBP(30).
	vegapunk bool
	path     path
	// lanes is the number of syndromes in one request.
	lanes int
	// pool is the number of sampled errors (a multiple of lanes).
	pool int
	// pacedRate is the paced segment's arrival rate in syndromes/s and
	// limitUs the latency, from the due time, past which a paced request
	// counts as a miss.
	pacedRate float64
	limitUs   float64
	serve     serve.Config
	why       string
}

// bpIters is the BP iteration cap on the BP workloads (the repo's
// serving default for the bimodal converge-fast-or-never behaviour).
const bpIters = 30

// decoupleSeed seeds the offline decoupling's refinement on the Vegapunk
// workloads.
const decoupleSeed = 3

// specs lists the four workloads. Every layer dominates one and is
// bypassed by another: hier (1, 3 | 2, 4), bp (2 | 1, 3), serve
// (2, 3, 4 | 1), wire (4, little in 3 | 1, 2), cluster (4 | 1, 2, 3),
// decouple (setup_s of 1, 3 | 2, 4).
var specs = []spec{
	{
		name: "direct-vegapunk-bb144", index: 1,
		bb: 3, circuit: true, p: 0.003, vegapunk: true,
		path: pathDirect, lanes: 1, pool: 8192, pacedRate: 600, limitUs: 5000,
		why: "BB[[144,12,12]] circuit p=0.003, Vegapunk scalar Decode, 1 goroutine, pool 8192, paced 600 syn/s, limit 5 ms: the paper's headline, hier+gf2 alone; serve, wire, cluster bypassed",
	},
	{
		name: "serve-batch-bp-bb72", index: 2,
		bb: 0, circuit: true, p: 0.003,
		// Four times ISSUE 11's pool: at this workload's logical error rate of
		// 0.042, 32768 samples spread decode_success_share by 0.16 % from seed
		// to seed, too close to its 0.2 % bound.
		path: pathServe, lanes: 64, pool: 131072, pacedRate: 30000, limitUs: 10000,
		serve: serve.Config{MaxBatch: 64},
		why:   "BB[[72,12,6]] circuit p=0.003, BP(30), in-process serve MaxBatch 64, 64-syndrome requests, pool 131072, paced 30k syn/s, limit 10 ms: bp batch kernel plus serve queue and dispatch, no sockets",
	},
	{
		name: "wire-vegapunk-bb72", index: 3,
		bb: 0, circuit: true, p: 0.003, vegapunk: true,
		path: pathWire, lanes: 8, pool: 16384, pacedRate: 15000, limitUs: 5000,
		// vegapunkd's defaults, written out so a change of default shows here.
		serve: serve.Config{MaxBatch: 16, MaxWait: 200 * time.Microsecond, MaxInFlight: 64},
		why:   "BB[[72,12,6]] circuit p=0.003, Vegapunk behind ServeWire (vegapunkd defaults), 8 pipelined frames, pool 16384, paced 15k syn/s, limit 5 ms: the product path; hier as coalesced micro-batches",
	},
	{
		name: "router-bp-light-bb72", index: 4,
		bb: 0, circuit: false, p: 0.01,
		path: pathRouter, lanes: 8, pool: 65536, pacedRate: 64000, limitUs: 2000,
		why: "BB[[72,12,6]] code-capacity p=0.01, BP(30), 2 replicas behind cluster.Router, 8 frames, pool 65536, paced 64k syn/s, limit 2 ms: decode nearly free; codec, syscalls, admission, relay are the cost",
	},
}

func findSpec(name string) (*spec, bool) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], true
		}
	}
	return nil, false
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchFile mirrors BENCHMARK.json. The harness computes metrics from
// its own tables; the file is read for the bounds (-compare) and by the
// tests, which hold the two in step.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &bf, nil
}
