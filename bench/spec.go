package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// benchSpec mirrors BENCHMARK.json, the contract at the repository root:
// workload names, and every metric's unit, direction and regression bound.
// The driver code owns how each number is measured; the file owns what it is
// called and how far it may move.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds <= 0 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: run_seconds, workloads, end_to_end and per_layer are all required", path)
	}
	return &s, nil
}

// metricKey is a metric's name in a halo-bench/v1 document: benchjson keys
// metrics by unit and reads the improvement direction off the unit suffix
// ("/s" improves upward), so the unit rides behind the name.
func metricKey(m metricSpec) string { return m.Name + " " + m.Unit }

// The driver wants every end-to-end metric on every workload, and a metric is
// only ever reported where it has its literal meaning: nothing else is put in
// its place. Where a metric does not apply, the result line carries
// notMeasured, the human report says n/a, result documents leave it out and
// -agree skips the pair. notMeasured is 1 and not 0 because the driver
// divides by a metric's median.
const notMeasured = 1

// measuredOn lists the workloads each end-to-end metric is measured on;
// a metric without an entry is measured on all of them.
//
// lookups_per_s is not end to end on table-uniform-1m, where it means what it
// says, because it does not repeat there: the table is memory-bound, the box
// shares its last-level cache and memory with its neighbours, and ten runs of
// one commit spread by 26 % in three sets out of four — beyond the widest
// bound the contract allows, whatever the rank, the run length or the table
// size (four million flows spread by 11 % in one set and 40 % in the next).
// The issue's rule for a pair that does not repeat is to demote it, not to
// widen its bound, so the traced run reports it there as
// loadgen.lookups_per_s.
var measuredOn = map[string][]string{
	"lookups_per_s":      {"table-zipf-churn", "wire-tcp-batch16", "wire-shm-single", "cluster-3node-migrate"},
	"writes_per_s":       {"table-zipf-churn", "cluster-3node-migrate"},
	"mem_bytes_per_flow": {"table-uniform-1m", "table-zipf-churn"},
	"sim_passes_per_s":   {simWorkload},
}

func measured(metric, workload string) bool {
	on, listed := measuredOn[metric]
	return !listed || slices.Contains(on, workload)
}

// layerMoves records, for every per-layer metric, which end-to-end metric it
// should move and on which workload — written down before anything is
// optimised, so a later change is judged against a prediction.
// BENCHMARK.json's per_layer entries carry exactly name, unit and direction,
// so the prediction lives here and is printed by -list and in README.md.
var layerMoves = []struct{ prefix, moves string }{
	{"flowserve.", "lookups_per_s on table-zipf-churn and loadgen.lookups_per_s on table-uniform-1m; at most its share elsewhere (counters: also writes_per_s, call_p99_us on table-zipf-churn)"},
	{"flowwire.", "lookups_per_s, call_p99_us on wire-* and cluster-3node-migrate; not table-*"},
	{"flowcluster.", "lookups_per_s, call_p99_us on cluster-3node-migrate only"},
	{"proc.", "context for every workload: were the cores busy, did the collector run"},
	{"loadgen.lookups_per_s", "is lookups_per_s, read off the untraced windows of the traced run; table-uniform-1m's only throughput figure"},
	{"loadgen.writes_per_s", "is writes_per_s, read off the untraced windows of the traced run"},
	{"loadgen.", "none: the benchmark's own cost, to tell the table from the generator"},
	{"experiments.", "sim_passes_per_s on sim-quick only"},
	{"runner.", "none end to end (sim-quick is gated at Workers: 1)"},
	{"sim.", "sim_passes_per_s on sim-quick only; sim.doc_crc32 and sim.fig9.* must not move at all"},
	{"sim_host_s", "sim_passes_per_s on sim-quick (the same passes, in host seconds)"},
	{"failed_share", "must stay 0 on every workload"},
	{"call_p", "follow lookups_per_s on the same workload (closed loop); the tail moves first under contention (table-zipf-churn, cluster-3node-migrate)"},
}

func movesOf(metric string) string {
	for _, lm := range layerMoves {
		if strings.HasPrefix(metric, lm.prefix) {
			return lm.moves
		}
	}
	return ""
}
