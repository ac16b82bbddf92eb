package experiments

import (
	"io"

	"halo/internal/metrics"
	"halo/internal/power"
	"halo/internal/stats"
)

// Table4Result reproduces Table 4 (power and area) plus the energy
// efficiency headline.
type Table4Result struct {
	Rows            []power.Table4Row
	EfficiencyVs1MB float64
	HaloAreaPercent float64
	Table           *metrics.Table
	EfficiencyTable *metrics.Table
}

// table4Row is the single point's measurement: the analytic power-model
// outputs (no simulation involved).
type table4Row struct {
	Rows            []power.Table4Row
	EfficiencyVs1MB float64
	HaloAreaPercent float64
}

// table4 is the power-model evaluation: one analytic cell, named by its
// label.
var table4 = experiment[string, table4Row, *Table4Result]{
	id:    "table4",
	cells: func(Config) []string { return []string{"power-model"} },
	label: itself,
	run: func(Config, int, string, *stats.Snapshot) table4Row {
		return table4Row{
			Rows:            power.Table4(),
			EfficiencyVs1MB: power.EfficiencyVsTCAM(1 << 20),
			HaloAreaPercent: power.HaloChipAreaPercent(),
		}
	},
	assemble: assembleTable4,
	render: func(r *Table4Result, w io.Writer) {
		r.Table.Render(w)
		r.EfficiencyTable.Render(w)
	},
}

func assembleTable4(_ Config, _ []string, rows []table4Row) *Table4Result {
	row := rows[0]
	res := &Table4Result{
		Rows:            row.Rows,
		EfficiencyVs1MB: row.EfficiencyVs1MB,
		HaloAreaPercent: row.HaloAreaPercent,
	}
	res.Table = metrics.NewTable("Table 4: power and area of hardware flow-classification approaches",
		"solution", "area/tiles", "static mW", "dynamic nJ/query")
	res.Table.SetCaption("anchored on the paper's 22nm McPAT/CACTI outputs")
	for _, r := range res.Rows {
		res.Table.AddRow(r.Solution, r.AreaTiles, r.StaticMW, r.DynamicNJPerQuery)
	}

	res.EfficiencyTable = metrics.NewTable("Energy efficiency (dynamic energy per query vs HALO)",
		"tcam-capacity", "tcam nJ/query", "sram-tcam nJ/query", "halo nJ/query", "halo advantage")
	for _, capBytes := range []uint64{1 << 10, 10 << 10, 100 << 10, 1 << 20} {
		tc := power.TCAMEstimate(capBytes)
		sr := power.SRAMTCAMEstimate(capBytes)
		ha := power.HaloAcceleratorEstimate()
		res.EfficiencyTable.AddRow(sizeName(capBytes), tc.DynamicNJPerQuery,
			sr.DynamicNJPerQuery, ha.DynamicNJPerQuery,
			metrics.Speedup(tc.DynamicNJPerQuery, ha.DynamicNJPerQuery))
	}
	return res
}

func sizeName(b uint64) string {
	if b >= 1<<20 {
		return "1MB"
	}
	switch b {
	case 1 << 10:
		return "1KB"
	case 10 << 10:
		return "10KB"
	case 100 << 10:
		return "100KB"
	}
	return "?"
}
