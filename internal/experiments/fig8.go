package experiments

import (
	"fmt"
	"io"
	"math"

	"halo/internal/halo"
	"halo/internal/metrics"
	"halo/internal/sim"
	"halo/internal/stats"
)

// Fig8Point is one (register size, flow count) accuracy measurement.
type Fig8Point struct {
	RegisterBits  uint
	Flows         int
	MeanEstimate  float64
	MeanRelErr    float64
	SaturatedPct  float64
	TrialsPerCell int
}

// Fig8Result reproduces Fig. 8b: linear-counting flow-register estimation
// accuracy across register sizes.
type Fig8Result struct {
	Points []Fig8Point
	Table  *metrics.Table
}

// fig8Cell is one (register size, flow count) coordinate.
type fig8Cell struct {
	bits  uint
	flows int
}

func fig8Cells(Config) []fig8Cell {
	var cells []fig8Cell
	for _, bits := range []uint{8, 16, 32, 64} {
		for _, mult := range []float64{0.25, 0.5, 1, 2, 4} {
			cells = append(cells, fig8Cell{bits, int(math.Max(1, float64(bits)*mult))})
		}
	}
	return cells
}

// fig8 is one cell per (register size, flow count). Each cell draws from
// its own seeded generator (derived from cfg.Seed and the cell's position)
// so the cells are independent of sweep order.
var fig8 = experiment[fig8Cell, Fig8Point, *Fig8Result]{
	id:       "fig8",
	cells:    fig8Cells,
	label:    func(c fig8Cell) string { return fmt.Sprintf("%dbit/%dflows", c.bits, c.flows) },
	run:      runFig8Cell,
	assemble: assembleFig8,
	render:   func(r *Fig8Result, w io.Writer) { r.Table.Render(w) },
}

// runFig8Cell is analytic — no simulated platform, so nothing to collect.
func runFig8Cell(cfg Config, index int, c fig8Cell, _ *stats.Snapshot) Fig8Point {
	trials := pickSize(cfg, 60, 400)
	rng := sim.NewRand(pointSeed(cfg, index))
	var sumEst, sumErr float64
	saturated := 0
	for trial := 0; trial < trials; trial++ {
		reg := halo.NewFlowRegister(c.bits)
		for f := 0; f < c.flows; f++ {
			h := rng.Uint64()
			for rep := 0; rep < 4; rep++ { // flows repeat within a window
				reg.Observe(h)
			}
		}
		if reg.Saturated() {
			saturated++
		}
		est := reg.Estimate()
		sumEst += est
		sumErr += math.Abs(est-float64(c.flows)) / float64(c.flows)
	}
	return Fig8Point{
		RegisterBits:  c.bits,
		Flows:         c.flows,
		MeanEstimate:  sumEst / float64(trials),
		MeanRelErr:    sumErr / float64(trials),
		SaturatedPct:  float64(saturated) / float64(trials),
		TrialsPerCell: trials,
	}
}

func assembleFig8(_ Config, _ []fig8Cell, rows []Fig8Point) *Fig8Result {
	res := &Fig8Result{
		Table: metrics.NewTable("Figure 8b: flow-register estimation accuracy (linear counting)",
			"bits", "flows", "mean-estimate", "rel-err", "saturated"),
	}
	res.Table.SetCaption("paper: an m-bit register accurately estimates ~2m flows")
	res.Points = rows
	for _, pt := range rows {
		res.Table.AddRow(pt.RegisterBits, pt.Flows, pt.MeanEstimate,
			metrics.Percent(pt.MeanRelErr), metrics.Percent(pt.SaturatedPct))
	}
	return res
}
