package experiments

import (
	"io"

	"halo/internal/halo"
	"halo/internal/metrics"
	"halo/internal/stats"
)

// HybridRow is one traffic phase's hybrid-controller measurement.
type HybridRow struct {
	Phase           string
	Flows           int
	Lookups         int
	SwLookups       uint64
	HwLookups       uint64
	Scans           uint64
	Switches        uint64
	FinalMode       string
	CyclesPerLookup float64
}

// HybridResult exercises the §4.6 hybrid controller end to end: a
// many-flow phase that must stay on the accelerators, a few-flow phase
// that must settle into software, and a phase shift that must switch and
// switch back. It is an extension: the paper describes the controller but
// shows no dedicated figure for it.
type HybridResult struct {
	Rows  []HybridRow
	Table *metrics.Table
}

// hybrid is one cell per traffic phase, named by its label.
var hybrid = experiment[string, HybridRow, *HybridResult]{
	id:    "hybrid",
	cells: func(Config) []string { return []string{"many-flows", "few-flows", "phase-shift"} },
	label: itself,
	run: func(cfg Config, _ int, phase string, snap *stats.Snapshot) HybridRow {
		return runHybridPoint(phase, pickSize(cfg, 2000, 12000), snap)
	},
	assemble: assembleHybrid,
	render:   func(r *HybridResult, w io.Writer) { r.Table.Render(w) },
}

func assembleHybrid(_ Config, _ []string, rows []HybridRow) *HybridResult {
	res := &HybridResult{
		Table: metrics.NewTable("Hybrid controller (§4.6): mode selection across traffic phases",
			"phase", "flows", "lookups", "sw-lookups", "hw-lookups", "scans", "switches", "final-mode", "cyc/lookup"),
	}
	res.Table.SetCaption("paper: below 64 active flows the L1-resident software path wins; above, the accelerators")
	res.Rows = rows
	for _, row := range rows {
		res.Table.AddRow(row.Phase, row.Flows, row.Lookups, row.SwLookups, row.HwLookups,
			row.Scans, row.Switches, row.FinalMode, row.CyclesPerLookup)
	}
	return res
}

// Row fetches a phase's measurement.
func (r *HybridResult) Row(phase string) (HybridRow, bool) {
	for _, row := range r.Rows {
		if row.Phase == phase {
			return row, true
		}
	}
	return HybridRow{}, false
}

// hybridFewFlows is well below the 64-flow software threshold;
// hybridManyFlows is well above it.
const (
	hybridFewFlows  = 8
	hybridManyFlows = 2048
)

func runHybridPoint(phase string, lookups int, snap *stats.Snapshot) HybridRow {
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	f := fixtureOn(p, 1<<12, 0.70)
	hcfg := halo.DefaultHybridConfig()
	// A shorter scan window than the paper's 100K cycles so every phase
	// closes several windows even at quick scale.
	hcfg.WindowCycles = 20_000
	h := halo.NewHybrid(hcfg, p.Unit)
	th := f.thread

	many := uint64(hybridManyFlows)
	if many > f.fill {
		many = f.fill
	}
	keyAt := func(i int) uint64 {
		switch phase {
		case "many-flows":
			return uint64(i*13) % many
		case "few-flows":
			return uint64(i) % hybridFewFlows
		default: // phase-shift: few flows first, then many
			if i < lookups/2 {
				return uint64(i) % hybridFewFlows
			}
			return uint64(i*13) % many
		}
	}

	start := th.Now
	var kb [testKeyLen]byte
	for i := 0; i < lookups; i++ {
		testKeyInto(keyAt(i), kb[:])
		h.Lookup(th, f.table, kb[:])
	}
	sw, hw := h.Lookups()
	collectInto(snap, p, th, h)

	flows := int(many)
	if phase == "few-flows" {
		flows = hybridFewFlows
	}
	return HybridRow{
		Phase:           phase,
		Flows:           flows,
		Lookups:         lookups,
		SwLookups:       sw,
		HwLookups:       hw,
		Scans:           h.Scans(),
		Switches:        h.Switches(),
		FinalMode:       h.Mode().String(),
		CyclesPerLookup: float64(th.Now-start) / float64(lookups),
	}
}
