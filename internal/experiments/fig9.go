package experiments

import (
	"fmt"
	"io"

	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/metrics"
	"halo/internal/stats"
	"halo/internal/tcam"
)

// Fig9Mode identifies one of the five compared solutions (paper §5.1).
type Fig9Mode string

// The compared solutions.
const (
	ModeSoftware Fig9Mode = "software"
	ModeHaloB    Fig9Mode = "halo-blocking"
	ModeHaloNB   Fig9Mode = "halo-nonblocking"
	ModeTCAM     Fig9Mode = "tcam"
	ModeSRAMTCAM Fig9Mode = "sram-tcam"
)

// Fig9Modes lists the solutions in presentation order.
var Fig9Modes = []Fig9Mode{ModeSoftware, ModeHaloB, ModeHaloNB, ModeTCAM, ModeSRAMTCAM}

// Fig9Point is one (mode, size, occupancy) measurement.
type Fig9Point struct {
	Mode            Fig9Mode
	Entries         uint64
	Occupancy       float64
	CyclesPerLookup float64
	// Normalized is throughput relative to software at the same point.
	Normalized float64
}

// Fig9Result reproduces Fig. 9: single hash-table lookup throughput across
// table sizes and occupancies for all five solutions.
type Fig9Result struct {
	Points []Fig9Point
	Table  *metrics.Table
}

// fig9Sizes returns the table-size sweep. The paper sweeps 2^3..2^24; the
// full config here stops at 2^21 (the largest table that exercises the
// LLC→DRAM crossover without hours of simulation) and quick mode earlier.
func fig9Sizes(cfg Config) []uint64 {
	if cfg.Quick {
		return []uint64{1 << 3, 1 << 6, 1 << 10, 1 << 14, 1 << 17}
	}
	return []uint64{1 << 3, 1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 21}
}

func fig9Occupancies(cfg Config) []float64 {
	if cfg.Quick {
		return []float64{0.75}
	}
	return []float64{0.25, 0.50, 0.75, 0.90}
}

// fig9Cell is one (size, occupancy, mode) coordinate.
type fig9Cell struct {
	size uint64
	occ  float64
	mode Fig9Mode
}

func fig9Cells(cfg Config) []fig9Cell {
	var cells []fig9Cell
	for _, size := range fig9Sizes(cfg) {
		for _, occ := range fig9Occupancies(cfg) {
			for _, mode := range Fig9Modes {
				cells = append(cells, fig9Cell{size, occ, mode})
			}
		}
	}
	return cells
}

// fig9 is one cell per (size, occupancy, mode): every compared solution at
// every sweep coordinate is its own simulator run, exactly as the paper's
// separate gem5 runs were. A row is the cell's cycles per lookup.
var fig9 = experiment[fig9Cell, float64, *Fig9Result]{
	id:    "fig9",
	cells: fig9Cells,
	label: func(c fig9Cell) string {
		return fmt.Sprintf("%s/%d-entries/%.0f%%", c.mode, c.size, c.occ*100)
	},
	run: func(cfg Config, _ int, c fig9Cell, snap *stats.Snapshot) float64 {
		return runFig9Point(cfg, c.mode, c.size, c.occ, pickSize(cfg, 1500, 5000), snap)
	},
	assemble: assembleFig9,
	render:   func(r *Fig9Result, w io.Writer) { r.Table.Render(w) },
}

func assembleFig9(_ Config, cells []fig9Cell, cycles []float64) *Fig9Result {
	res := &Fig9Result{
		Table: metrics.NewTable("Figure 9: single hash-table lookup throughput (normalized to software)",
			"entries", "occ", "software", "halo-B", "halo-NB", "tcam", "sram-tcam"),
	}
	res.Table.SetCaption("paper: HALO up to 3.3x in the LLC regime; software wins for tiny tables; TCAM fastest")

	// Modes are the innermost coordinate, software first: each (size,
	// occupancy) group opens with its own baseline and is one table row.
	var software float64
	var row []any
	for i, c := range cells {
		if c.mode == ModeSoftware {
			software = cycles[i]
			row = []any{c.size, fmt.Sprintf("%.0f%%", c.occ*100)}
		}
		norm := software / cycles[i]
		res.Points = append(res.Points, Fig9Point{
			Mode: c.mode, Entries: c.size, Occupancy: c.occ,
			CyclesPerLookup: cycles[i], Normalized: norm,
		})
		row = append(row, fmt.Sprintf("%.2fx (%.0fcyc)", norm, cycles[i]))
		if c.mode == Fig9Modes[len(Fig9Modes)-1] {
			res.Table.AddRow(row...)
		}
	}
	return res
}

// Point fetches a specific measurement from the result.
func (r *Fig9Result) Point(mode Fig9Mode, entries uint64, occ float64) (Fig9Point, bool) {
	for _, pt := range r.Points {
		if pt.Mode == mode && pt.Entries == entries && pt.Occupancy == occ {
			return pt, true
		}
	}
	return Fig9Point{}, false
}

func runFig9Point(cfg Config, mode Fig9Mode, entries uint64, occ float64, lookups int, snap *stats.Snapshot) float64 {
	switch mode {
	case ModeTCAM, ModeSRAMTCAM:
		return runFig9TCAM(mode, entries, occ, lookups, snap)
	}
	f := sharedFixture(cfg, entries, occ)
	th := f.thread
	defer collectInto(snap, f.p, th)

	switch mode {
	case ModeSoftware:
		// Single-lookup rte_hash path: no cross-lookup prefetch pipeline.
		opts := cuckoo.LookupOptions{OptimisticLock: true, Prefetch: false}
		var kb [testKeyLen]byte
		return cyclesPerLookup(th, lookups, func(n uint64) {
			testKeyInto(n%f.fill, kb[:])
			f.table.TimedLookup(th, kb[:], opts)
		})

	case ModeHaloB:
		return cyclesPerLookup(th, lookups, func(n uint64) {
			f.p.Unit.LookupBAt(th, f.table.Base(), f.stageKeyDMA(n))
		})

	case ModeHaloNB:
		const batch = 8
		qs := make([]halo.NBQuery, 0, batch)
		rs := make([]halo.NBResult, batch)
		run := func(n int, base uint64) {
			for done := 0; done < n; done += batch {
				qs = qs[:0]
				for j := 0; j < batch && done+j < n; j++ {
					qs = append(qs, halo.NBQuery{
						TableAddr: f.table.Base(),
						KeyAddr:   f.stageKeyDMA(base + uint64(done+j)*13),
					})
				}
				f.p.Unit.LookupManyNBInto(th, qs, rs[:len(qs)])
			}
		}
		run(lookups/2, 7)
		start := th.Now
		run(lookups, 0)
		return float64(th.Now-start) / float64(lookups)
	}
	panic("unknown mode")
}

func runFig9TCAM(mode Fig9Mode, entries uint64, occ float64, lookups int, snap *stats.Snapshot) float64 {
	kind := tcam.ClassicTCAM
	if mode == ModeSRAMTCAM {
		kind = tcam.SRAMTCAM
	}
	fill := uint64(float64(entries) * occ)
	if fill == 0 {
		fill = 1
	}
	dev := tcam.New(tcam.DefaultConfig(kind, int(fill), 16))
	var kb [testKeyLen]byte
	for i := uint64(0); i < fill; i++ {
		testKeyInto(i, kb[:])
		if err := dev.InsertExact(kb[:], i); err != nil {
			panic(err)
		}
	}
	// The device answers in fixed time; charge the thread on a plain
	// platform for issue costs.
	f := newLookupFixture(8, 1)
	th := f.thread
	start := th.Now
	for i := 0; i < lookups; i++ {
		testKeyInto(uint64(i*13)%fill, kb[:])
		dev.LookupTimed(th, kb[:])
	}
	collectInto(snap, f.p, th)
	return float64(th.Now-start) / float64(lookups)
}
