package experiments

import (
	"fmt"
	"io"

	"halo/internal/halo"
	"halo/internal/metrics"
	"halo/internal/noc"
	"halo/internal/stats"
)

// AblationResult holds the design-choice sweeps DESIGN.md calls out: they
// quantify how much each HALO mechanism contributes.
type AblationResult struct {
	MetaCacheSpeedup float64 // metadata cache on vs off
	LockCostPct      float64 // hardware lock on vs off
	DepthCycles      map[int]float64
	DispatchCycles   map[string]float64
	Table            *metrics.Table
}

// ablationCell is one knob setting: its point label, the two columns that
// name it in the table, and how to measure it. Every setting measures on
// its own platform, so a row is one number (cycles per lookup).
type ablationCell struct {
	label, knob, setting string
	depth                int // scoreboard-depth cells
	run                  func(lookups int, snap *stats.Snapshot) float64
}

// ablationCells enumerates the knob settings in render order. The
// metadata-cache-on run is the default configuration — the baseline the
// metadata-cache-off and lock-off runs are read against — so it comes first.
func ablationCells(Config) []ablationCell {
	unit := func(mutate func(*halo.UnitConfig)) func(int, *stats.Snapshot) float64 {
		return func(lookups int, snap *stats.Snapshot) float64 {
			return runAblationPoint(lookups, mutate, snap)
		}
	}
	cells := []ablationCell{
		{label: "metacache-on", knob: "metadata-cache", setting: "on",
			run: unit(func(*halo.UnitConfig) {})},
		// Off: every query re-reads the metadata line from the LLC.
		{label: "metacache-off", knob: "metadata-cache", setting: "off",
			run: unit(func(u *halo.UnitConfig) {
				u.Accel.MetaCacheTables = 1
				u.Accel.MetaCacheOff = true
			})},
		// Off: locking costs nothing on the read path.
		{label: "no-lock", knob: "hardware-lock", setting: "off",
			run: unit(func(u *halo.UnitConfig) { u.Accel.LockEnabled = false })},
	}
	// Deeper scoreboards absorb bursts.
	for _, depth := range []int{1, 4, 10, 16} {
		cells = append(cells, ablationCell{
			label: fmt.Sprintf("depth-%d", depth), depth: depth,
			knob: "scoreboard-depth", setting: fmt.Sprint(depth),
			run: func(lookups int, snap *stats.Snapshot) float64 {
				return runAblationBurst(lookups, depth, snap)
			}})
	}
	// The by-table policy's payoff is metadata locality: with more live
	// tables than one metadata cache holds, hashing by table keeps each
	// table's metadata resident on one accelerator, while round-robin
	// thrashes every cache. 24 tables > the 10-table capacity.
	for _, d := range []struct {
		name   string
		policy noc.DispatchPolicy
	}{
		{"by-table", noc.DispatchByTable},
		{"by-key-line", noc.DispatchByKeyLine},
		{"round-robin", noc.DispatchRoundRobin},
	} {
		cells = append(cells, ablationCell{
			label: "dispatch-" + d.name, knob: "dispatch", setting: d.name,
			run: func(lookups int, snap *stats.Snapshot) float64 {
				return runAblationMultiTable(lookups, d.policy, snap)
			}})
	}
	return cells
}

// ablations is the design-choice study, one cell per knob setting.
var ablations = experiment[ablationCell, float64, *AblationResult]{
	id:    "ablations",
	cells: ablationCells,
	label: func(c ablationCell) string { return c.label },
	run: func(cfg Config, _ int, c ablationCell, snap *stats.Snapshot) float64 {
		return c.run(pickSize(cfg, 1500, 6000), snap)
	},
	assemble: assembleAblations,
	render:   func(r *AblationResult, w io.Writer) { r.Table.Render(w) },
}

func assembleAblations(_ Config, cells []ablationCell, cycles []float64) *AblationResult {
	res := &AblationResult{
		DepthCycles:    map[int]float64{},
		DispatchCycles: map[string]float64{},
	}
	res.Table = metrics.NewTable("Ablations: HALO design choices", "knob", "setting", "cyc/lookup", "note")

	var on float64 // the metadata-cache-on baseline
	for i, c := range cells {
		v, note := cycles[i], ""
		switch {
		case c.knob == "metadata-cache" && c.setting == "on":
			on = v
		case c.knob == "metadata-cache":
			res.MetaCacheSpeedup = v / on
			note = fmt.Sprintf("%.2fx slower", res.MetaCacheSpeedup)
		case c.knob == "hardware-lock":
			res.LockCostPct = (on - v) / on
			note = metrics.Percent(res.LockCostPct) + " of locked time"
		case c.knob == "scoreboard-depth":
			res.DepthCycles[c.depth] = v
			note = "burst workload"
		case c.knob == "dispatch":
			res.DispatchCycles[c.setting] = v
			note = "24 live tables"
		}
		res.Table.AddRow(c.knob, c.setting, v, note)
	}
	return res
}

// runAblationMultiTable measures blocking lookups round-robining over 24
// tables under the given dispatch policy.
func runAblationMultiTable(lookups int, pol noc.DispatchPolicy, snap *stats.Snapshot) float64 {
	pcfg := halo.DefaultPlatformConfig()
	pcfg.Unit.Dispatch = pol
	p := halo.NewPlatform(pcfg)
	const nTables = 24
	fixtures := make([]*lookupFixture, nTables)
	for i := range fixtures {
		fixtures[i] = fixtureOn(p, 1<<10, 0.75)
	}
	th := fixtures[0].thread
	for i := 0; i < lookups/2; i++ {
		f := fixtures[i%nTables]
		p.Unit.LookupBAt(th, f.table.Base(), f.stageKeyDMA(uint64(i)))
	}
	start := th.Now
	for i := 0; i < lookups; i++ {
		f := fixtures[i%nTables]
		p.Unit.LookupBAt(th, f.table.Base(), f.stageKeyDMA(uint64(i*13)))
	}
	collectInto(snap, p, th)
	return float64(th.Now-start) / float64(lookups)
}

func runAblationPoint(lookups int, mutate func(*halo.UnitConfig), snap *stats.Snapshot) float64 {
	pcfg := halo.DefaultPlatformConfig()
	mutate(&pcfg.Unit)
	p := halo.NewPlatform(pcfg)
	f := fixtureOn(p, 1<<14, 0.75)
	cyc := cyclesPerLookup(f.thread, lookups, func(n uint64) {
		p.Unit.LookupBAt(f.thread, f.table.Base(), f.stageKeyDMA(n))
	})
	collectInto(snap, p, f.thread)
	return cyc
}

// runAblationBurst measures a bursty all-cores workload against one table,
// where the scoreboard depth governs queueing.
func runAblationBurst(lookups int, depth int, snap *stats.Snapshot) float64 {
	pcfg := halo.DefaultPlatformConfig()
	pcfg.Unit.Accel.ScoreboardDepth = depth
	p := halo.NewPlatform(pcfg)
	f := fixtureOn(p, 1<<14, 0.75)
	var lastDone float64
	a := p.Unit.Accelerator(0)
	keyAddr := f.stageKeyDMA(1)
	for i := 0; i < lookups; i++ {
		r := a.Process(0, halo.Query{Core: i % 16, TableAddr: f.table.Base(), KeyAddr: keyAddr})
		if float64(r.Done) > lastDone {
			lastDone = float64(r.Done)
		}
	}
	collectInto(snap, p, f.thread)
	return lastDone / float64(lookups)
}
