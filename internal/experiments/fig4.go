package experiments

import (
	"fmt"
	"io"

	"halo/internal/cache"
	"halo/internal/cuckoo"
	"halo/internal/metrics"
	"halo/internal/stats"
)

// Fig4Row is one (table kind, flow count) cache-behaviour measurement.
type Fig4Row struct {
	Kind        string
	Flows       uint64
	L2MPKL      float64
	LLCMPKL     float64
	L2StallPct  float64
	LLCStallPct float64
	Utilisation float64
}

// Fig4Result reproduces Fig. 4: cuckoo hash vs single-function hash (SFH)
// cache behaviour as the flow count grows.
type Fig4Result struct {
	Rows  []Fig4Row
	Table *metrics.Table
}

// fig4Cell is one (table kind, flow count) coordinate of the sweep.
type fig4Cell struct {
	name  string
	sfh   bool
	flows uint64
}

func fig4Cells(cfg Config) []fig4Cell {
	// 500K sits in the window where the SFH footprint (5x over-allocated)
	// has outgrown the 32 MB LLC while the compact cuckoo table still fits
	// — the sharpest contrast of the paper's figure.
	flowCounts := []uint64{1_000, 10_000, 100_000, 500_000, 1_000_000, 4_000_000}
	if cfg.Quick {
		flowCounts = []uint64{1_000, 10_000, 100_000, 500_000}
	}
	var cells []fig4Cell
	for _, kind := range []struct {
		name string
		sfh  bool
	}{{"cuckoo", false}, {"sfh", true}} {
		for _, flows := range flowCounts {
			cells = append(cells, fig4Cell{kind.name, kind.sfh, flows})
		}
	}
	return cells
}

// fig4 is one cell per (table kind, flow count).
var fig4 = experiment[fig4Cell, Fig4Row, *Fig4Result]{
	id:    "fig4",
	cells: fig4Cells,
	label: func(c fig4Cell) string { return fmt.Sprintf("%s/%d-flows", c.name, c.flows) },
	run: func(cfg Config, _ int, c fig4Cell, snap *stats.Snapshot) Fig4Row {
		return runFig4Point(c.name, c.sfh, c.flows, pickSize(cfg, 4000, 20000), snap)
	},
	assemble: assembleFig4,
	render:   func(r *Fig4Result, w io.Writer) { r.Table.Render(w) },
}

func assembleFig4(_ Config, _ []fig4Cell, rows []Fig4Row) *Fig4Result {
	res := &Fig4Result{
		Table: metrics.NewTable("Figure 4: hash-table cache behaviour (cuckoo vs SFH)",
			"table", "flows", "L2 MPKL", "LLC MPKL", "L2-stall", "LLC-stall", "util"),
	}
	res.Table.SetCaption("paper: cuckoo stays LLC-resident to 4M flows; SFH misses LLC from ~100K")
	res.Rows = rows
	for _, row := range rows {
		res.Table.AddRow(row.Kind, row.Flows, row.L2MPKL, row.LLCMPKL,
			metrics.Percent(row.L2StallPct), metrics.Percent(row.LLCStallPct),
			metrics.Percent(row.Utilisation))
	}
	return res
}

func runFig4Point(name string, sfh bool, flows uint64, lookups int, snap *stats.Snapshot) Fig4Row {
	// Size the table the way operators do: next power of two above the
	// flow count, then fill to the flow count.
	entries := uint64(8)
	for entries < flows {
		entries <<= 1
	}
	p := newPlatformForTable(entries, sfh)
	table, err := cuckoo.Create(p.Space, p.Alloc, cuckoo.Config{Entries: entries, KeyLen: 16, SFH: sfh})
	if err != nil {
		panic(err)
	}
	inserted := fillAndWarm(p, table, flows, func(i uint64) uint64 { return i })
	f := &lookupFixture{p: p, table: table, thread: newThreadOn(p), fill: inserted}

	// One warm pass so steady-state residency is established, then the
	// measured pass over a *different* uniformly spread key set.
	// Fibonacci-hash strides spread the looked-up keys uniformly across
	// the whole table, as real flow traffic does.
	var kb [testKeyLen]byte
	for i := 0; i < lookups; i++ {
		testKeyInto(uint64(i)*2654435761%inserted, kb[:])
		table.TimedLookup(f.thread, kb[:], cuckoo.DefaultLookupOptions())
	}
	f.thread.ResetCounts()
	p.Hier.ResetStats()
	for i := 0; i < lookups; i++ {
		testKeyInto(uint64(i)*40503001%inserted, kb[:])
		table.TimedLookup(f.thread, kb[:], cuckoo.DefaultLookupOptions())
	}

	// The table here bypasses Platform.NewTable (it sizes its own arena), so
	// its counters are collected explicitly alongside the platform's.
	collectInto(snap, p, f.thread, table.Stats())

	// MPKL counts cache misses per thousand retired loads from the cache
	// counters, as VTune does: prefetch-triggered misses included.
	hs := p.Hier.Stats()
	loads := float64(f.thread.Counts.Loads)
	util := float64(table.Size()) / (float64(table.BucketCount()) * cuckoo.EntriesPerBucket)
	return Fig4Row{
		Kind:        name,
		Flows:       flows,
		L2MPKL:      1000 * float64(hs.L2Misses) / loads,
		LLCMPKL:     1000 * float64(hs.LLCMisses) / loads,
		L2StallPct:  f.thread.StallRatio(cache.InLLC),
		LLCStallPct: f.thread.StallRatio(cache.InMemory),
		Utilisation: util,
	}
}
