// Package power provides the energy and area models behind the paper's
// Table 4 and its 48.2× energy-efficiency headline.
//
// The paper derives its numbers from McPAT and CACTI at 22 nm. Those tools
// are not reproducible here, so this package anchors an interpolation model
// on the paper's published tool outputs (the Table 4 rows) and the scaling
// relations the underlying circuits obey: TCAM match energy grows with
// searched bits, static power with capacity, and area with cell count.
// Between anchors, quantities interpolate in log-log space; outside, they
// extrapolate on the nearest segment's slope.
package power

import (
	"fmt"
	"math"
	"sort"
)

// Estimate is one structure's power/area characterisation, in the paper's
// units: chip tiles (1 tile = one core + its cache slice area), milliwatts
// of static power, and nanojoules per lookup query.
type Estimate struct {
	AreaTiles         float64
	StaticMW          float64
	DynamicNJPerQuery float64
}

// anchor is one calibrated capacity point.
type anchor struct {
	bytes   float64
	area    float64
	static  float64
	dynamic float64
}

// tcamAnchors are the paper's Table 4 rows (22 nm McPAT/CACTI outputs).
var tcamAnchors = []anchor{
	{bytes: 1 << 10, area: 0.001, static: 71.1, dynamic: 0.04},
	{bytes: 10 << 10, area: 0.066, static: 235.3, dynamic: 0.37},
	{bytes: 100 << 10, area: 1.044, static: 3850.5, dynamic: 13.84},
	{bytes: 1 << 20, area: 9.343, static: 26733.1, dynamic: 84.82},
}

// SRAM-TCAM scaling versus a same-capacity TCAM (paper §6.4, citing the
// Z-TCAM line of work): ~45% less power, ~57% less area.
const (
	sramPowerScale = 0.55
	sramAreaScale  = 0.43
)

// interp evaluates a log-log piecewise-linear fit at x.
func interp(x float64, pick func(anchor) float64) float64 {
	a := tcamAnchors
	lx := math.Log(x)
	i := sort.Search(len(a), func(i int) bool { return a[i].bytes >= x })
	switch {
	case i == 0:
		i = 1
	case i >= len(a):
		i = len(a) - 1
	}
	x0, x1 := math.Log(a[i-1].bytes), math.Log(a[i].bytes)
	y0, y1 := math.Log(pick(a[i-1])), math.Log(pick(a[i]))
	t := (lx - x0) / (x1 - x0)
	return math.Exp(y0 + t*(y1-y0))
}

// TCAMEstimate characterises a classic TCAM of the given capacity.
func TCAMEstimate(capacityBytes uint64) Estimate {
	if capacityBytes == 0 {
		return Estimate{}
	}
	x := float64(capacityBytes)
	return Estimate{
		AreaTiles:         interp(x, func(a anchor) float64 { return a.area }),
		StaticMW:          interp(x, func(a anchor) float64 { return a.static }),
		DynamicNJPerQuery: interp(x, func(a anchor) float64 { return a.dynamic }),
	}
}

// SRAMTCAMEstimate characterises an SRAM-based TCAM of the given capacity.
func SRAMTCAMEstimate(capacityBytes uint64) Estimate {
	e := TCAMEstimate(capacityBytes)
	e.AreaTiles *= sramAreaScale
	e.StaticMW *= sramPowerScale
	e.DynamicNJPerQuery *= sramPowerScale
	return e
}

// HALO's per-accelerator characterisation (paper Table 4): the accelerator
// is a handful of hash/compare units plus a 640 B metadata cache, so its
// cost is capacity-independent.
const (
	haloAreaTiles   = 0.012
	haloStaticMW    = 97.2
	haloDynamicNJ   = 1.76
	haloAreaPercent = 1.2 // of total chip area, paper §6.4
)

// HaloAcceleratorEstimate characterises one HALO accelerator.
func HaloAcceleratorEstimate() Estimate {
	return Estimate{AreaTiles: haloAreaTiles, StaticMW: haloStaticMW, DynamicNJPerQuery: haloDynamicNJ}
}

// HaloChipAreaPercent reports the whole-chip area overhead (paper: 1.2%).
func HaloChipAreaPercent() float64 { return haloAreaPercent }

// EfficiencyVsTCAM returns how many times more energy-efficient HALO is
// than a TCAM of the given capacity on a pure per-query-energy basis —
// the paper's 48.2× headline uses the 1 MB TCAM point.
func EfficiencyVsTCAM(capacityBytes uint64) float64 {
	return TCAMEstimate(capacityBytes).DynamicNJPerQuery / HaloAcceleratorEstimate().DynamicNJPerQuery
}

// Table4Row is one row of the regenerated Table 4.
type Table4Row struct {
	Solution string
	Estimate
}

// Table4 regenerates the paper's Table 4.
func Table4() []Table4Row {
	rows := []Table4Row{}
	for _, capBytes := range []uint64{1 << 10, 10 << 10, 100 << 10, 1 << 20} {
		rows = append(rows, Table4Row{
			Solution: fmt.Sprintf("TCAM %s", sizeLabel(capBytes)),
			Estimate: TCAMEstimate(capBytes),
		})
	}
	rows = append(rows, Table4Row{Solution: "HALO (per accelerator)", Estimate: HaloAcceleratorEstimate()})
	return rows
}

func sizeLabel(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	default:
		return fmt.Sprintf("%dKB", b>>10)
	}
}
