package experiments

import (
	"io"

	"halo/internal/cache"
	"halo/internal/cuckoo"
	"halo/internal/metrics"
	"halo/internal/stats"
)

// Fig10Row is one (solution, placement) latency breakdown, in cycles per
// lookup.
type Fig10Row struct {
	Solution  string
	Placement string // "llc" or "dram"
	Compute   float64
	DataAcc   float64
	Locking   float64
	Total     float64
}

// Fig10Result reproduces Fig. 10: the per-lookup latency breakdown
// (compute / data access / locking) with the accessed entries resident in
// the LLC versus DRAM, normalized in the table to the software-LLC total.
type Fig10Result struct {
	Rows  []Fig10Row
	Table *metrics.Table
}

// fig10Cell is one (solution, placement) coordinate.
type fig10Cell struct {
	solution string
	name     string
	entries  uint64
}

func fig10Cells(Config) []fig10Cell {
	placements := []struct {
		name    string
		entries uint64
	}{
		{"llc", 1 << 14},  // comfortably LLC-resident
		{"dram", 1 << 21}, // far beyond the 32 MB LLC
	}
	var cells []fig10Cell
	for _, pl := range placements {
		cells = append(cells, fig10Cell{"software", pl.name, pl.entries})
		cells = append(cells, fig10Cell{"halo", pl.name, pl.entries})
	}
	return cells
}

// fig10 is one cell per (solution, placement).
var fig10 = experiment[fig10Cell, Fig10Row, *Fig10Result]{
	id:    "fig10",
	cells: fig10Cells,
	label: func(c fig10Cell) string { return c.solution + "/" + c.name },
	run: func(cfg Config, _ int, c fig10Cell, snap *stats.Snapshot) Fig10Row {
		lookups := pickSize(cfg, 1500, 6000)
		if c.solution == "software" {
			return runFig10Software(cfg, c.name, c.entries, lookups, snap)
		}
		return runFig10Halo(cfg, c.name, c.entries, lookups, snap)
	},
	assemble: assembleFig10,
	render:   func(r *Fig10Result, w io.Writer) { r.Table.Render(w) },
}

func assembleFig10(_ Config, _ []fig10Cell, rows []Fig10Row) *Fig10Result {
	res := &Fig10Result{
		Rows: rows,
		Table: metrics.NewTable("Figure 10: lookup latency breakdown (normalized to software/LLC total)",
			"solution", "placement", "compute", "data-access", "locking", "total", "cyc/lookup"),
	}
	res.Table.SetCaption("paper: HALO cuts compute 48.1%%; CHA data access 4.1x faster (LLC), 1.6x (DRAM)")
	base := rows[0].Total // software/LLC
	for _, r := range rows {
		res.Table.AddRow(r.Solution, r.Placement,
			metrics.Percent(r.Compute/base), metrics.Percent(r.DataAcc/base),
			metrics.Percent(r.Locking/base), metrics.Percent(r.Total/base), r.Total)
	}
	return res
}

// Row fetches a breakdown row.
func (r *Fig10Result) Row(solution, placement string) (Fig10Row, bool) {
	for _, row := range r.Rows {
		if row.Solution == solution && row.Placement == placement {
			return row, true
		}
	}
	return Fig10Row{}, false
}

func fig10SoftwarePass(f *lookupFixture, lookups int, lock bool) (total, data float64) {
	opts := cuckoo.LookupOptions{OptimisticLock: lock, Prefetch: false}
	var kb [testKeyLen]byte
	for i := 0; i < lookups/2; i++ { // warm
		testKeyInto(uint64(i)%f.fill, kb[:])
		f.table.TimedLookup(f.thread, kb[:], opts)
	}
	f.thread.ResetCounts()
	start := f.thread.Now
	for i := 0; i < lookups; i++ {
		testKeyInto(uint64(i*13)%f.fill, kb[:])
		f.table.TimedLookup(f.thread, kb[:], opts)
	}
	elapsed := float64(f.thread.Now-start) / float64(lookups)
	var stall uint64
	for w, c := range f.thread.Stalls.CyclesByWhere {
		if cache.HitWhere(w) >= cache.InLLC {
			stall += c
		}
	}
	return elapsed, float64(stall) / float64(lookups)
}

func runFig10Software(cfg Config, placement string, entries uint64, lookups int, snap *stats.Snapshot) Fig10Row {
	// Locking cost is the delta between runs with and without the
	// optimistic-lock protocol: separate simulator runs from one populated
	// and warmed state, the one the halo cell at this placement starts
	// from too. The locked pass — the configuration under study — is
	// snapshotted.
	fNoLock, fLock := sharedFixture(cfg, entries, 0.75), sharedFixture(cfg, entries, 0.75)
	noLockTotal, noLockData := fig10SoftwarePass(fNoLock, lookups, false)
	lockTotal, lockData := fig10SoftwarePass(fLock, lookups, true)
	collectInto(snap, fLock.p, fLock.thread)
	locking := lockTotal - noLockTotal
	if locking < 0 {
		locking = 0
	}
	return Fig10Row{
		Solution:  "software",
		Placement: placement,
		Compute:   noLockTotal - noLockData,
		DataAcc:   lockData,
		Locking:   locking,
		Total:     lockTotal,
	}
}

func runFig10Halo(cfg Config, placement string, entries uint64, lookups int, snap *stats.Snapshot) Fig10Row {
	f := sharedFixture(cfg, entries, 0.75)
	for i := 0; i < lookups/2; i++ { // warm
		f.p.Unit.LookupBAt(f.thread, f.table.Base(), f.stageKeyDMA(uint64(i)))
	}
	f.p.Hier.ResetStats()
	start := f.thread.Now
	for i := 0; i < lookups; i++ {
		f.p.Unit.LookupBAt(f.thread, f.table.Base(), f.stageKeyDMA(uint64(i*13)))
	}
	collectInto(snap, f.p, f.thread)
	total := float64(f.thread.Now-start) / float64(lookups)
	data := float64(f.p.Hier.Stats().AccelAccessCycles) / float64(lookups)
	return Fig10Row{
		Solution:  "halo",
		Placement: placement,
		Compute:   total - data, // dispatch, hash, compare, result return
		DataAcc:   data,
		Locking:   0, // the hardware lock is free of instruction cost
		Total:     total,
	}
}
