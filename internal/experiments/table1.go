package experiments

import (
	"io"

	"halo/internal/cuckoo"
	"halo/internal/metrics"
	"halo/internal/stats"
)

// Table1Result reproduces Table 1: the retired-instruction profile of one
// software hash-table lookup.
type Table1Result struct {
	InstructionsPerLookup float64
	LoadShare             float64
	StoreShare            float64
	MemoryShare           float64
	ArithShare            float64
	OtherShare            float64
	Table                 *metrics.Table
}

// table1Row is the single point's measurement (the Table1Result scalars).
type table1Row struct {
	InstructionsPerLookup float64
	LoadShare             float64
	StoreShare            float64
	MemoryShare           float64
	ArithShare            float64
	OtherShare            float64
}

// table1 is the single instruction-profile measurement: one cell, named
// by its label.
var table1 = experiment[string, table1Row, *Table1Result]{
	id:       "table1",
	cells:    func(Config) []string { return []string{"instruction-profile"} },
	label:    itself,
	run:      runTable1Point,
	assemble: assembleTable1,
	render:   func(r *Table1Result, w io.Writer) { r.Table.Render(w) },
}

func runTable1Point(cfg Config, _ int, _ string, snap *stats.Snapshot) table1Row {
	lookups := pickSize(cfg, 2000, 20000)
	f := newLookupFixture(1<<14, 0.75)
	var kb [testKeyLen]byte
	for i := 0; i < lookups; i++ { // warm
		testKeyInto(uint64(i)%f.fill, kb[:])
		f.table.TimedLookup(f.thread, kb[:], cuckoo.DefaultLookupOptions())
	}
	f.thread.ResetCounts()
	for i := 0; i < lookups; i++ {
		testKeyInto(uint64(i*13)%f.fill, kb[:])
		f.table.TimedLookup(f.thread, kb[:], cuckoo.DefaultLookupOptions())
	}
	collectInto(snap, f.p, f.thread)
	c := f.thread.Counts
	n := float64(lookups)
	total := float64(c.Total())
	return table1Row{
		InstructionsPerLookup: total / n,
		LoadShare:             float64(c.Loads) / total,
		StoreShare:            float64(c.Stores) / total,
		MemoryShare:           float64(c.Loads+c.Stores) / total,
		ArithShare:            float64(c.Arith) / total,
		OtherShare:            float64(c.Other) / total,
	}
}

func assembleTable1(_ Config, _ []string, rows []table1Row) *Table1Result {
	row := rows[0]
	res := &Table1Result{
		InstructionsPerLookup: row.InstructionsPerLookup,
		LoadShare:             row.LoadShare,
		StoreShare:            row.StoreShare,
		MemoryShare:           row.MemoryShare,
		ArithShare:            row.ArithShare,
		OtherShare:            row.OtherShare,
	}
	res.Table = metrics.NewTable("Table 1: instructions per software lookup",
		"solution", "#instr/lookup", "memory", "(load)", "(store)", "arith", "other")
	res.Table.SetCaption("paper: 210 instr; 48.1%% memory (36.2%% load, 11.8%% store), 21.0%% arith, 30.9%% other")
	res.Table.AddRow("OVS/cuckoo hash", res.InstructionsPerLookup,
		metrics.Percent(res.MemoryShare), metrics.Percent(res.LoadShare),
		metrics.Percent(res.StoreShare), metrics.Percent(res.ArithShare),
		metrics.Percent(res.OtherShare))
	return res
}
