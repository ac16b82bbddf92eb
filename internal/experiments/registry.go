package experiments

import (
	"io"
	"sort"
)

// Runner names one experiment and carries its Sweep decomposition. The
// runner package fans the sweep points out across workers; Run executes
// them serially in place.
type Runner struct {
	ID    string
	Paper string // which paper artefact it regenerates
	Sweep Sweep
}

// Run executes every point of the experiment serially and renders its
// tables to w.
func (r Runner) Run(cfg Config, w io.Writer) {
	r.Sweep.Render(cfg, runSerial(cfg, r.Sweep), w)
}

// Registry returns every experiment runner, keyed and ordered by ID.
func Registry() []Runner {
	return []Runner{
		fig3.runner("Figure 3 (packet-processing breakdown)"),
		fig4.runner("Figure 4 (cuckoo vs SFH cache behaviour)"),
		table1.runner("Table 1 (instruction profile)"),
		lockoverhead.runner("§3.4 (concurrency overhead)"),
		fig8.runner("Figure 8b (flow-register accuracy)"),
		fig9.runner("Figure 9 (single-table lookup sweep)"),
		fig10.runner("Figure 10 (latency breakdown)"),
		fig11.runner("Figure 11 (tuple space search)"),
		fig12.runner("Figure 12 (collocated NF interference)"),
		table4.runner("Table 4 (power and area)"),
		fig13.runner("Figure 13 (hash-table NF speedup)"),
		ablations.runner("design-choice sweeps (beyond the paper)"),
		scaling.runner("multicore scaling under rule churn (beyond the paper)"),
		updates.runner("rule-update cost, cuckoo vs TCAM (§1 motivation)"),
		hybrid.runner("§4.6 hybrid controller mode selection (beyond the paper)"),
	}
}

// Find returns the runner with the given ID.
func Find(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs returns all experiment IDs, sorted.
func IDs() []string {
	var ids []string
	for _, r := range Registry() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return ids
}
